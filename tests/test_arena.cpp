// Unit tests for the slot-scoped bump arena: epoch-reset slab reuse,
// alignment, the oversize fallback through BufferPool, and the counting-
// allocator proof that a warm epoch's allocations never touch the heap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "counting_alloc.hpp"

namespace u5g {
namespace {

TEST(ArenaTest, EpochResetReusesTheSameSlabStorage) {
  Arena a;
  void* first = a.allocate(1024);
  std::memset(first, 0xAB, 1024);
  a.epoch_reset();
  void* again = a.allocate(1024);
  EXPECT_EQ(first, again) << "warm epoch must rewind to the retained slab";
  EXPECT_EQ(1u, a.stats().slab_acquires) << "no new slab across epochs";
  EXPECT_EQ(1u, a.stats().epochs);
}

TEST(ArenaTest, AllocationsRespectAlignment) {
  Arena a;
  (void)a.allocate(1, 1);  // misalign the bump offset
  for (const std::size_t align : {2u, 4u, 8u, 16u, 64u}) {
    void* p = a.allocate(3, align);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(p) % align) << "align " << align;
    (void)a.allocate(1, 1);  // re-misalign for the next round
  }
  auto* d = a.allocate_array<double>(5);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(d) % alignof(double));
}

TEST(ArenaTest, AllocationsWithinAnEpochAreDisjoint) {
  Arena a;
  auto* x = a.allocate_array<std::uint32_t>(16);
  auto* y = a.allocate_array<std::uint32_t>(16);
  ASSERT_NE(x, y);
  for (int i = 0; i < 16; ++i) x[i] = 0x11111111u;
  for (int i = 0; i < 16; ++i) y[i] = 0x22222222u;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(0x11111111u, x[i]);
}

TEST(ArenaTest, SpillsIntoASecondSlabWhenTheFirstFills) {
  Arena a;
  // Three half-slab chunks cannot share one slab.
  void* p0 = a.allocate(Arena::kSlabBytes / 2 + 16);
  void* p1 = a.allocate(Arena::kSlabBytes / 2 + 16);
  void* p2 = a.allocate(Arena::kSlabBytes / 2 + 16);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(3u, a.stats().slab_acquires);
  std::memset(p2, 0x5A, Arena::kSlabBytes / 2 + 16);  // writable end to end
  a.epoch_reset();
  // All three slabs are retained: the next epoch re-serves the same storage.
  EXPECT_EQ(p0, a.allocate(Arena::kSlabBytes / 2 + 16));
  EXPECT_EQ(3u, a.stats().slab_acquires);
  EXPECT_EQ(3 * Arena::kSlabBytes, a.warm_capacity());
}

TEST(ArenaTest, OversizeRequestFallsBackToAPoolBlockAndReturnsItAtReset) {
  BufferPool& pool = BufferPool::local();
  Arena a;
  (void)a.allocate(64);  // bind the arena to this thread's pool
  const std::uint64_t releases_before = pool.stats().releases;

  void* big = a.allocate(Arena::kSlabBytes + 1);
  ASSERT_NE(nullptr, big);
  std::memset(big, 0xC3, Arena::kSlabBytes + 1);  // fully usable
  EXPECT_EQ(1u, a.stats().oversize);

  a.epoch_reset();
  EXPECT_EQ(releases_before + 1, pool.stats().releases)
      << "oversize block must go back to the pool at the slot barrier";
  // The next oversize epoch recycles through the pool, not the arena slabs.
  (void)a.allocate(Arena::kSlabBytes + 1);
  EXPECT_EQ(2u, a.stats().oversize);
  a.epoch_reset();
}

TEST(ArenaTest, ZeroSizeRequestsAreAligned) {
  Arena a;
  void* p = a.allocate(0, 16);
  EXPECT_NE(nullptr, p);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(p) % 16);
}

TEST(ArenaTest, WarmEpochsAreHeapAllocationFree) {
  Arena a;
  // Cold epoch: carve the slabs (and let the thread-local pool warm up).
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 64; ++i) (void)a.allocate(512, 16);
    a.epoch_reset();
  }
  const std::size_t before = g_allocs.load();
  for (int epoch = 0; epoch < 32; ++epoch) {
    for (int i = 0; i < 64; ++i) {
      void* p = a.allocate(512, 16);
      ASSERT_NE(nullptr, p);
    }
    a.epoch_reset();
  }
  EXPECT_EQ(0u, g_allocs.load() - before)
      << "a warm arena epoch must not touch the heap";
}

}  // namespace
}  // namespace u5g
