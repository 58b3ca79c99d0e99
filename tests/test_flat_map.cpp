// Unit tests for the open-addressing FlatHashMap: random operation hammer
// against std::unordered_map, backward-shift deletion on forced collision
// chains (an identity hash makes probe sequences deterministic), growth,
// and steady-state allocation behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "common/flat_map.hpp"
#include "sim/runner.hpp"

namespace u5g {
namespace {

TEST(FlatHashMapTest, RandomOpsMatchUnorderedMapReference) {
  FlatHashMap<std::uint64_t, std::uint32_t> fm;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::uint64_t state = 0xBADC0FFEEULL;
  for (int op = 0; op < 20000; ++op) {
    state = splitmix64(state);
    // A small key universe forces heavy insert/erase/re-insert churn.
    const std::uint64_t key = state % 257;
    state = splitmix64(state);
    switch (state % 4) {
      case 0:
      case 1: {  // insert / overwrite
        const auto val = static_cast<std::uint32_t>(state >> 32);
        fm[key] = val;
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(ref.erase(key) == 1, fm.erase(key)) << "op " << op;
        break;
      }
      default: {  // lookup
        const auto* v = fm.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(it != ref.end(), v != nullptr) << "op " << op;
        if (v != nullptr) EXPECT_EQ(it->second, *v);
        break;
      }
    }
    ASSERT_EQ(ref.size(), fm.size());
  }
  // Final sweep: every reference entry is reachable with the right value.
  for (const auto& [k, v] : ref) {
    const auto* got = fm.find(k);
    ASSERT_NE(nullptr, got) << "key " << k;
    EXPECT_EQ(v, *got);
  }
}

/// Identity hash: keys chosen by the test collide exactly where it wants.
struct IdentityHash {
  [[nodiscard]] std::size_t operator()(std::uint64_t x) const {
    return static_cast<std::size_t>(x);
  }
};

TEST(FlatHashMapTest, BackwardShiftDeletionKeepsDisplacedEntriesReachable) {
  // All keys share home slot (k % 16 == 3 at the minimum capacity of 16),
  // forming one probe chain. Erasing from the front/middle must shift the
  // displaced tail back so every survivor is still found — the failure mode
  // tombstone-free deletion exists to prevent.
  FlatHashMap<std::uint64_t, int, IdentityHash> fm;
  const std::uint64_t keys[] = {3, 19, 35, 51, 67};
  for (int i = 0; i < 5; ++i) fm[keys[i]] = i;

  EXPECT_TRUE(fm.erase(3));  // head of the chain
  for (int i = 1; i < 5; ++i) {
    const int* v = fm.find(keys[i]);
    ASSERT_NE(nullptr, v) << "key " << keys[i] << " lost after head erase";
    EXPECT_EQ(i, *v);
  }
  EXPECT_TRUE(fm.erase(35));  // middle
  EXPECT_EQ(nullptr, fm.find(35));
  for (const std::uint64_t k : {19u, 51u, 67u}) {
    EXPECT_NE(nullptr, fm.find(k)) << "key " << k << " lost after middle erase";
  }
  EXPECT_EQ(3u, fm.size());
}

TEST(FlatHashMapTest, WrapAroundProbeChainSurvivesErase) {
  // Chain homed near the top of the 16-slot table wraps past index 0.
  FlatHashMap<std::uint64_t, int, IdentityHash> fm;
  const std::uint64_t keys[] = {14, 30, 46, 62};  // all home at slot 14
  for (int i = 0; i < 4; ++i) fm[keys[i]] = i;    // occupy 14, 15, 0, 1
  EXPECT_TRUE(fm.erase(30));
  for (const std::uint64_t k : {14u, 46u, 62u}) {
    ASSERT_NE(nullptr, fm.find(k)) << "key " << k << " lost across the wrap";
  }
}

TEST(FlatHashMapTest, GrowthRehashPreservesAllEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t> fm;
  for (std::uint64_t k = 0; k < 1000; ++k) fm[k * 1'000'003ULL] = k;
  ASSERT_EQ(1000u, fm.size());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const auto* v = fm.find(k * 1'000'003ULL);
    ASSERT_NE(nullptr, v) << "key " << k;
    EXPECT_EQ(k, *v);
  }
}

}  // namespace
}  // namespace u5g
