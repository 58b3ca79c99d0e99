// Pooled-datapath verification: the word-wise PDCP kernels against the
// byte-wise reference implementation they replaced, the memoized TBS binary
// search against the linear scan, buffer-pool recycling, the ByteBuffer
// invalidation contract, and the headline claim — a warm packet through the
// datapath (entity chain and full e2e_system) performs zero heap allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/small_vec.hpp"
#include "common/time.hpp"
#include "core/e2e_system.hpp"
#include "mac/mac_pdu.hpp"
#include "pdcp/cipher.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "phy/modulation.hpp"
#include "phy/tbs_table.hpp"
#include "phy/transport_block.hpp"
#include "rlc/rlc_entity.hpp"
#include "sdap/qos.hpp"
#include "sdap/sdap_entity.hpp"
#include "counting_alloc.hpp"

namespace u5g {
namespace {

// ---------------------------------------------------------------------------
// Byte-wise reference cipher/integrity: the pre-word-wise implementation,
// kept verbatim as the oracle. The production kernels must be bit-identical
// to these for every length and parameter combination.

std::uint64_t ref_keystream_word(const CipherContext& ctx, std::uint32_t count,
                                 std::uint64_t block) {
  std::uint64_t x = ctx.key ^ (static_cast<std::uint64_t>(count) << 32) ^
                    (static_cast<std::uint64_t>(ctx.bearer) << 8) ^ (ctx.downlink ? 1u : 0u);
  x += (block + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void ref_apply_keystream(std::span<std::uint8_t> data, const CipherContext& ctx,
                         std::uint32_t count) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t word = ref_keystream_word(ctx, count, i / 8);
    data[i] ^= static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
}

std::uint32_t ref_integrity_tag(std::span<const std::uint8_t> data, const CipherContext& ctx,
                                std::uint32_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ ctx.key ^ count ^
                    (static_cast<std::uint64_t>(ctx.bearer) << 40) ^ (ctx.downlink ? 2u : 0u);
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// A deterministic context that varies key, bearer, direction and count with
/// the length so the sweep covers the parameter space, not just one key.
CipherContext ctx_for(std::size_t len) {
  return CipherContext{.key = 0x5deece66d2b4a1c9ULL ^ (len * 0x9e3779b97f4a7c15ULL),
                       .bearer = static_cast<std::uint32_t>(len % 33),
                       .downlink = (len & 1) != 0};
}

std::uint32_t count_for(std::size_t len) {
  return static_cast<std::uint32_t>(len * 2654435761u + 17u);
}

class CipherOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(0xC0FFEE);
    base_.resize(4096);
    for (auto& b : base_) b = static_cast<std::uint8_t>(rng());
  }
  std::vector<std::uint8_t> base_;
};

// Every length 0..4096 — all eight tail residues and both the small inline
// and the pooled regime — must produce byte-identical ciphertext.
TEST_F(CipherOracleTest, WordWiseCipherMatchesByteWiseReference) {
  for (std::size_t len = 0; len <= 4096; ++len) {
    std::vector<std::uint8_t> a(base_.begin(), base_.begin() + static_cast<std::ptrdiff_t>(len));
    std::vector<std::uint8_t> b = a;
    const CipherContext ctx = ctx_for(len);
    const std::uint32_t count = count_for(len);
    apply_keystream(a, ctx, count);
    ref_apply_keystream(b, ctx, count);
    ASSERT_TRUE(a == b) << "cipher diverges at length " << len;
  }
}

TEST_F(CipherOracleTest, ApplyingKeystreamTwiceRestoresPlaintext) {
  for (std::size_t len = 0; len <= 4096; ++len) {
    std::vector<std::uint8_t> a(base_.begin(), base_.begin() + static_cast<std::ptrdiff_t>(len));
    const CipherContext ctx = ctx_for(len);
    const std::uint32_t count = count_for(len);
    apply_keystream(a, ctx, count);
    if (len >= 8) {
      // The keystream must actually change the data (involution != identity).
      ASSERT_FALSE(std::equal(a.begin(), a.end(), base_.begin())) << "keystream no-op at " << len;
    }
    apply_keystream(a, ctx, count);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), base_.begin()))
        << "round trip fails at length " << len;
  }
}

TEST_F(CipherOracleTest, WordWiseIntegrityMatchesByteWiseReference) {
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::span<const std::uint8_t> data{base_.data(), len};
    const CipherContext ctx = ctx_for(len);
    const std::uint32_t count = count_for(len);
    ASSERT_EQ(ref_integrity_tag(data, ctx, count), integrity_tag(data, ctx, count))
        << "integrity tag diverges at length " << len;
  }
}

TEST_F(CipherOracleTest, IntegrityDetectsBitFlips) {
  std::mt19937_64 rng(0xBADC0DE);
  for (const std::size_t len : {1u, 7u, 8u, 9u, 63u, 64u, 1250u, 4096u}) {
    std::vector<std::uint8_t> data(base_.begin(), base_.begin() + static_cast<std::ptrdiff_t>(len));
    const CipherContext ctx = ctx_for(len);
    const std::uint32_t count = count_for(len);
    const std::uint32_t tag = integrity_tag(data, ctx, count);
    const std::size_t bit = rng() % (len * 8);
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(tag, integrity_tag(data, ctx, count)) << "flip undetected at length " << len;
  }
}

// ---------------------------------------------------------------------------
// TBS table: the binary search must equal the linear scan everywhere.

TEST(TbsTableTest, BinarySearchMatchesExhaustiveScanForAllPayloads) {
  // For every standard MCS and symbol count, sweep *every* payload from 0 to
  // one past the max TBS. The reference is a two-pointer walk over the
  // monotone row, so the whole sweep is O(total payloads).
  for (int mi = 0; mi < TbsTable::kMcsCount; ++mi) {
    const McsEntry m = mcs(mi);
    for (int sym = 1; sym <= TbsTable::kMaxSymbols; ++sym) {
      std::array<int, TbsTable::kMaxPrb> row;
      for (int prb = 1; prb <= TbsTable::kMaxPrb; ++prb) {
        row[static_cast<std::size_t>(prb - 1)] =
            transport_block_size_bits(Allocation{.n_prb = prb, .n_symbols = sym}, m);
      }
      const int max_bytes = row.back() / 8;
      int ptr = 0;
      for (int payload = 0; payload <= max_bytes; ++payload) {
        while (ptr < TbsTable::kMaxPrb && row[static_cast<std::size_t>(ptr)] < payload * 8) ++ptr;
        const int expected = ptr < TbsTable::kMaxPrb ? ptr + 1 : 0;
        const int got = prbs_needed(payload, sym, m);
        if (got != expected) {
          FAIL() << "prbs_needed(" << payload << ", " << sym << ", mcs" << mi << ") = " << got
                 << ", expected " << expected;
        }
      }
      EXPECT_EQ(0, prbs_needed(max_bytes + 1, sym, m))
          << "payload past max TBS must not fit (mcs" << mi << ", " << sym << " symbols)";
    }
  }
}

TEST(TbsTableTest, BinarySearchMatchesLinearScanAtBoundaries) {
  // Direct binary-vs-linear comparison at every PRB boundary (both sides),
  // tying the table to the declared reference implementation.
  for (int mi = 0; mi < TbsTable::kMcsCount; ++mi) {
    const McsEntry m = mcs(mi);
    for (int sym = 1; sym <= TbsTable::kMaxSymbols; ++sym) {
      for (int prb = 1; prb <= TbsTable::kMaxPrb; prb += 7) {
        const int bytes =
            transport_block_size_bits(Allocation{.n_prb = prb, .n_symbols = sym}, m) / 8;
        for (const int payload : {bytes, bytes + 1}) {
          const int got = prbs_needed(payload, sym, m);
          const int ref = prbs_needed_linear(payload, sym, m);
          if (got != ref) {
            FAIL() << "binary " << got << " != linear " << ref << " (payload " << payload
                   << ", mcs" << mi << ", " << sym << " symbols)";
          }
        }
      }
    }
  }
}

TEST(TbsTableTest, RespectsCallerPrbCeilings) {
  const McsEntry m = mcs(10);
  for (const int max_prb : {1, 2, 50, 272, 273, 300, 400}) {
    for (int payload = 0; payload <= 4096; payload += 13) {
      ASSERT_EQ(prbs_needed_linear(payload, 4, m, max_prb), prbs_needed(payload, 4, m, max_prb))
          << "max_prb " << max_prb << ", payload " << payload;
    }
  }
}

TEST(TbsTableTest, NonStandardMcsFallsBackToLinear) {
  // A hand-built entry that shares index 10 but not its contents must not be
  // served from the memoized row for mcs 10.
  const McsEntry custom{.index = 10, .modulation = Modulation::QAM256, .rate_x1024 = 999};
  EXPECT_FALSE(TbsTable::covers(custom, 4));
  for (int payload = 0; payload <= 8192; payload += 37) {
    ASSERT_EQ(prbs_needed_linear(payload, 4, custom), prbs_needed(payload, 4, custom))
        << "payload " << payload;
  }
  // Out-of-slot symbol counts are also out of the memoized domain.
  EXPECT_FALSE(TbsTable::covers(mcs(10), 0));
  EXPECT_FALSE(TbsTable::covers(mcs(10), 15));
}

// ---------------------------------------------------------------------------
// Buffer pool: recycling, prefill, and the unpooled fallback.

TEST(BufferPoolTest, ReleaseThenAcquireReusesTheSameBlock) {
  BufferPool pool;
  BufferPool::Block* first = pool.acquire(512);
  ASSERT_NE(nullptr, first);
  EXPECT_EQ(512u, first->capacity);
  pool.release(first);
  // 400 rounds up into the same 512-byte class: the freelist must serve the
  // exact block just released.
  BufferPool::Block* second = pool.acquire(400);
  EXPECT_EQ(first, second);
  EXPECT_EQ(1u, pool.stats().heap_allocations);
  EXPECT_EQ(1u, pool.stats().reuses);
  pool.release(second);
}

TEST(BufferPoolTest, PrefillStocksFreelistsWithoutSkewingStats) {
  BufferPool pool;
  pool.prefill(512, 4);
  EXPECT_EQ(4u, pool.stats().heap_allocations);
  EXPECT_EQ(0u, pool.stats().reuses);
  EXPECT_EQ(0u, pool.stats().releases);
  EXPECT_EQ(0u, pool.stats().outstanding);
  BufferPool::Block* blocks[4];
  for (auto& b : blocks) b = pool.acquire(512);
  EXPECT_EQ(4u, pool.stats().heap_allocations) << "prefilled acquires must not hit the heap";
  EXPECT_EQ(4u, pool.stats().reuses);
  for (auto* b : blocks) pool.release(b);
}

TEST(BufferPoolTest, HugeBlocksBypassTheFreelist) {
  BufferPool pool;
  const std::size_t huge = BufferPool::kMaxPooledCapacity + 1;
  BufferPool::Block* b = pool.acquire(huge);
  ASSERT_NE(nullptr, b);
  EXPECT_EQ(-1, b->cls);
  EXPECT_GE(b->capacity, huge);
  pool.release(b);
  EXPECT_EQ(0u, pool.stats().outstanding);
  // A second huge acquire goes back to the heap: no freelist kept them.
  BufferPool::Block* c = pool.acquire(huge);
  EXPECT_EQ(2u, pool.stats().heap_allocations);
  pool.release(c);
}

TEST(BufferPoolTest, WarmByteBuffersRecycleThroughTheThreadLocalPool) {
  // Warm the relevant size class, then verify a sustained create/destroy
  // loop never carves new blocks from the heap.
  for (int i = 0; i < 4; ++i) ByteBuffer dummy(300);
  const std::uint64_t heap_before = BufferPool::local().stats().heap_allocations;
  for (int i = 0; i < 256; ++i) {
    ByteBuffer b(300, static_cast<std::uint8_t>(i));
    EXPECT_FALSE(b.is_inline());
    b.append_zeros(16);
  }
  EXPECT_EQ(heap_before, BufferPool::local().stats().heap_allocations);
}

TEST(BufferPoolTest, CrossThreadReleaseKeepsEveryCounterExact) {
  // Regression: global acquire/release tallies used to be two process-wide
  // atomics; now each pool keeps its own (owner-thread-written) counters,
  // merged on read. A block released on a thread that did not acquire it
  // must (a) not underflow the destination pool's `outstanding`, (b) tick
  // its `foreign_releases`, (c) keep the source pool counting the block as
  // outstanding, and (d) leave the merged global view migration-exact.
  constexpr int kBlocks = 5;
  BufferPool source;
  BufferPool::Block* blocks[kBlocks];
  for (auto& b : blocks) b = source.acquire(512);
  EXPECT_EQ(static_cast<std::uint64_t>(kBlocks), source.stats().outstanding);
  const BufferPool::GlobalStats before = BufferPool::global_stats();

  std::thread releaser([&] {
    BufferPool sink;
    EXPECT_EQ(0u, sink.stats().outstanding);
    for (auto* b : blocks) sink.release(b);
    EXPECT_EQ(0u, sink.stats().outstanding) << "foreign release must not underflow";
    EXPECT_EQ(static_cast<std::uint64_t>(kBlocks), sink.stats().foreign_releases);
    EXPECT_EQ(static_cast<std::uint64_t>(kBlocks), sink.stats().releases);
    // `sink` is destroyed here: its release tally must fold into the
    // registry's retired counters, not vanish with the pool.
  });
  releaser.join();

  EXPECT_EQ(static_cast<std::uint64_t>(kBlocks), source.stats().outstanding)
      << "migrated blocks never come home to the source pool";
  const BufferPool::GlobalStats after = BufferPool::global_stats();
  EXPECT_EQ(before.acquires, after.acquires);
  EXPECT_EQ(before.releases + kBlocks, after.releases);
  EXPECT_EQ(before.outstanding - kBlocks, after.outstanding)
      << "global view must stay exact across migration and pool teardown";
}

TEST(BufferPoolTest, GlobalStatsPairAcquiresWithReleasesOnTheHappyPath) {
  const BufferPool::GlobalStats before = BufferPool::global_stats();
  {
    BufferPool pool;
    BufferPool::Block* a = pool.acquire(256);
    BufferPool::Block* b = pool.acquire(4096);
    pool.release(a);
    pool.release(b);
  }
  const BufferPool::GlobalStats after = BufferPool::global_stats();
  EXPECT_EQ(before.acquires + 2, after.acquires);
  EXPECT_EQ(before.releases + 2, after.releases);
  EXPECT_EQ(before.outstanding, after.outstanding);
}

// ---------------------------------------------------------------------------
// SmallVec: moving a heap-spilled vector transfers the heap block wholesale;
// the source must end up empty without running destructors over the
// never-constructed slots of its inline buffer (regression: the old move
// ctor called clear() on the source after stealing the heap block, invoking
// size_ destructors on garbage inline storage).

struct LiveCounted {
  explicit LiveCounted(int* live) : live_(live) { ++*live_; }
  LiveCounted(LiveCounted&& o) noexcept : live_(o.live_) { ++*live_; }
  ~LiveCounted() { --*live_; }
  int* live_;
};

TEST(SmallVecTest, HeapSpilledMoveRunsNoSpuriousDestructors) {
  int live = 0;
  {
    SmallVec<LiveCounted, 4> src;
    for (int i = 0; i < 6; ++i) src.emplace_back(&live);  // spills past N=4
    ASSERT_EQ(6, live);
    SmallVec<LiveCounted, 4> dst(std::move(src));
    EXPECT_EQ(6, live) << "move must transfer elements, not destroy them";
    EXPECT_EQ(6u, dst.size());
    EXPECT_TRUE(src.empty());
    src.emplace_back(&live);  // source stays usable after the move
    EXPECT_EQ(7, live);
  }
  EXPECT_EQ(0, live) << "constructions and destructions must balance";
}

TEST(SmallVecTest, ParsingManySubPdusSurvivesTheMoveOutOfParse) {
  // The reviewer's repro: 5+ subPDUs spill MacSubPdus past its inline
  // capacity, and parse_mac_pdu's `return out;` move-constructs the spilled
  // vector into the optional. Round-trip must hold and nothing may corrupt
  // the buffer pool (the pooled payloads are released on scope exit below,
  // then reacquired cleanly).
  MacSubPdus sub;
  for (int i = 0; i < 6; ++i) {
    sub.emplace_back(MacSubPdu{Lcid::Drb1, ByteBuffer(40, static_cast<std::uint8_t>(i + 1))});
  }
  ByteBuffer tb = build_mac_pdu(sub, 6 * (kMacSubheaderBytes + 40) + 10);
  auto parsed = parse_mac_pdu(std::move(tb));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(6u, parsed->size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    const auto bytes = (*parsed)[i].payload.bytes();
    ASSERT_EQ(40u, bytes.size());
    EXPECT_EQ(static_cast<std::uint8_t>(i + 1), bytes[0]);
  }
}

// ---------------------------------------------------------------------------
// ByteBuffer: small-buffer regime, from_bytes, and the invalidation contract.

TEST(ByteBufferContractTest, SmallPayloadsStayInline) {
  ByteBuffer small(16, 0xAB);
  EXPECT_TRUE(small.is_inline());
  ByteBuffer large(64, 0xCD);
  EXPECT_FALSE(large.is_inline());
}

// GCC's -Warray-bounds reads the size constructor's memset and the move's
// inline memcpy as writing past the 40-byte inline array at offset 64 (the
// pooled headroom). That pairs the inline storage with the pooled begin_
// offset, which the buffer never does: begin_ is 64 only once a block is
// held. This drives every construction path across the inline/pooled split
// and the headroom size so a sanitizer build sees each write.
TEST(ByteBufferContractTest, PayloadsAroundTheStorageBoundariesStayInBounds) {
  const std::vector<std::size_t> sizes{32, 33, 63, 64, 65, 127, 128, 300};
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> pattern(n);
    for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const auto holds = [&](const ByteBuffer& b, const std::uint8_t* want) {
      return b.size() == n && std::memcmp(b.bytes().data(), want, n) == 0;
    };

    const ByteBuffer sized(n, 0xA5);
    const std::vector<std::uint8_t> fill(n, 0xA5);
    EXPECT_TRUE(holds(sized, fill.data())) << n;
    EXPECT_EQ(n > 32, !sized.is_inline()) << n;

    ByteBuffer from = ByteBuffer::from_bytes(pattern);
    EXPECT_TRUE(holds(from, pattern.data())) << n;

    const ByteBuffer copied(from);
    EXPECT_TRUE(holds(copied, pattern.data())) << n;
    ByteBuffer assigned(4, 0x00);
    assigned = copied;
    EXPECT_TRUE(holds(assigned, pattern.data())) << n;

    const ByteBuffer moved(std::move(from));
    EXPECT_TRUE(holds(moved, pattern.data())) << n;
    EXPECT_TRUE(from.empty()) << n;  // NOLINT(bugprone-use-after-move): moved-from state
  }
}

TEST(ByteBufferContractTest, FromBytesCopiesExactlyOnce) {
  std::array<std::uint8_t, 100> src;
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i * 3 + 1);
  const ByteBuffer b = ByteBuffer::from_bytes(src);
  ASSERT_EQ(src.size(), b.size());
  EXPECT_EQ(0, std::memcmp(b.bytes().data(), src.data(), src.size()));
}

TEST(ByteBufferContractTest, GenerationTracksInvalidatingMutations) {
  ByteBuffer b(32, 0x11);
  const std::uint32_t g0 = b.generation();

  // Window-only operations leave storage (and thus existing spans) intact.
  (void)b.pop_header(4);
  b.truncate_back(4);
  EXPECT_EQ(g0, b.generation());

  // Mutating operations each bump the counter.
  const std::uint8_t hdr[2] = {0xAA, 0xBB};
  b.push_header(hdr);
  const std::uint32_t g1 = b.generation();
  EXPECT_GT(g1, g0);
  b.append(hdr);
  EXPECT_GT(b.generation(), g1);
}

TEST(ByteBufferContractTest, RelocationBumpsGenerationAndPreservesContents) {
  ByteBuffer b(16, 0x5C);  // inline: any large append must migrate to a block
  EXPECT_TRUE(b.is_inline());
  const std::uint32_t g0 = b.generation();
  b.reserve_tail(200);
  EXPECT_FALSE(b.is_inline());
  EXPECT_GT(b.generation(), g0) << "storage migration must invalidate spans";
  ASSERT_EQ(16u, b.size());
  for (const std::uint8_t byte : b.bytes()) EXPECT_EQ(0x5C, byte);
}

TEST(ByteBufferContractTest, HeaderPushPastHeadroomRelocates) {
  ByteBuffer b(64, 0x01);
  std::array<std::uint8_t, 80> big_header;
  big_header.fill(0xEE);
  const std::uint32_t g0 = b.generation();
  b.push_header(big_header);  // 80 > the 64-byte headroom reserve
  EXPECT_GT(b.generation(), g0);
  ASSERT_EQ(144u, b.size());
  EXPECT_EQ(0xEE, b.bytes()[0]);
  EXPECT_EQ(0x01, b.bytes()[80]);
  // After relocation the headroom reserve is restored: another push fits.
  const std::uint8_t small[4] = {9, 9, 9, 9};
  b.push_header(small);
  EXPECT_EQ(148u, b.size());
}

// ---------------------------------------------------------------------------
// Zero-allocation assertions.

constexpr std::uint8_t kQfi = 5;

/// The bench_datapath entity chain, reused here as a test: SDAP → PDCP →
/// RLC → MAC build/parse → RLC → PDCP → SDAP.
struct EntityChain {
  explicit EntityChain(std::size_t payload)
      : payload_bytes(payload), tb_bytes(payload + 64), pdcp_tx(config()), pdcp_rx(config()),
        rlc_tx(RlcMode::UM), rlc_rx(RlcMode::UM) {
    sdap.configure_flow(kQfi, BearerId{1}, urllc_five_qi());
  }

  static PdcpConfig config() {
    return PdcpConfig{.sn_bits = 12,
                      .integrity_enabled = true,
                      .security = CipherContext{.key = 0x5deece66d2b4a1c9ULL, .bearer = 1,
                                                .downlink = true}};
  }

  std::size_t pump(std::uint8_t fill) {
    ByteBuffer pkt(payload_bytes, fill);
    sdap.encapsulate(pkt, kQfi);
    pdcp_tx.protect(pkt);
    rlc_tx.enqueue(std::move(pkt), Nanos::zero());

    MacSubPdus sub;
    std::size_t used = 0;
    while (auto pulled = rlc_tx.pull(tb_bytes - used - kMacSubheaderBytes)) {
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub.push_back(MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)});
    }
    ByteBuffer tb = build_mac_pdu(sub, tb_bytes);

    std::size_t delivered = 0;
    auto parsed = parse_mac_pdu(std::move(tb));
    if (!parsed) return 0;
    for (MacSubPdu& sp : *parsed) {
      if (sp.lcid != Lcid::Drb1) continue;
      rlc_rx.receive(std::move(sp.payload), [&](ByteBuffer&& sdu, const PacketMeta&) {
        pdcp_rx.receive(std::move(sdu), [&](ByteBuffer&& plain, const PacketMeta&) {
          (void)sdap.decapsulate(plain);
          if (plain.size() == payload_bytes && plain.bytes()[0] == fill) {
            delivered = plain.size();
          }
        });
      });
    }
    return delivered;
  }

  /// Batched slot: kBatch packets protected, multiplexed into one transport
  /// block, parsed and received through the batch kernels — the
  /// bench_datapath pump_batch shape, with all scratch on the slot arena.
  static constexpr std::size_t kBatch = 8;
  std::size_t pump_batch(std::uint8_t fill) {
    std::array<ByteBuffer, kBatch> pkts;
    ByteBuffer** ptrs = arena.allocate_array<ByteBuffer*>(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      pkts[i] = ByteBuffer(payload_bytes, static_cast<std::uint8_t>(fill + i));
      sdap.encapsulate(pkts[i], kQfi);
      ptrs[i] = &pkts[i];
    }
    pdcp_tx.protect_batch({ptrs, kBatch});

    for (std::size_t i = 0; i < kBatch; ++i) rlc_tx.enqueue(std::move(pkts[i]), Nanos::zero());
    std::array<MacSubPdu, kBatch> sub;
    std::size_t nsub = 0;
    std::size_t used = 0;
    while (auto pulled = rlc_tx.pull(kBatch * tb_bytes - used - kMacSubheaderBytes)) {
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub[nsub].lcid = Lcid::Drb1;
      sub[nsub].payload = std::move(pulled->pdu);
      if (++nsub == kBatch) break;
    }
    ByteBuffer tb = build_mac_pdu({sub.data(), nsub}, used);

    std::array<ByteBuffer, kBatch> staged;
    std::size_t nstaged = 0;
    parse_mac_pdu_to(std::move(tb), [&](ByteBuffer&& body, const PacketMeta& meta) {
      if (meta.lcid != static_cast<std::uint8_t>(Lcid::Drb1)) return;
      rlc_rx.receive(std::move(body), [&](ByteBuffer&& sdu, const PacketMeta&) {
        if (nstaged < kBatch) staged[nstaged++] = std::move(sdu);
      });
    });

    std::size_t delivered = 0;
    pdcp_rx.receive_batch({staged.data(), nstaged}, [&](ByteBuffer&& plain, const PacketMeta&) {
      (void)sdap.decapsulate(plain);
      if (plain.size() == payload_bytes) ++delivered;
    });
    arena.epoch_reset();
    return delivered;
  }

  std::size_t payload_bytes;
  std::size_t tb_bytes;
  SdapEntity sdap;
  PdcpTx pdcp_tx;
  PdcpRx pdcp_rx;
  RlcTx rlc_tx;
  RlcRx rlc_rx;
  Arena arena;
};

TEST(ZeroAllocTest, WarmEntityChainIsAllocationFree) {
  for (const std::size_t payload : {64u, 256u, 1250u}) {
    EntityChain chain(payload);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(payload, chain.pump(static_cast<std::uint8_t>(i | 1))) << "warm-up failed";
    }
    const std::size_t before = g_allocs.load();
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(payload, chain.pump(static_cast<std::uint8_t>(i | 1)));
    }
    EXPECT_EQ(0u, g_allocs.load() - before)
        << "warm entity chain allocated at payload " << payload;
  }
}

TEST(ZeroAllocTest, BatchedSlotRoundTripsEveryPacket) {
  // Functional check first: the batched slot (protect_batch, one multiplexed
  // TB, receive_batch) must deliver all kBatch packets per pump, at every
  // payload class, including runs long enough to wrap PDCP lanes and RLC SNs.
  for (const std::size_t payload : {64u, 256u, 1250u}) {
    EntityChain chain(payload);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(EntityChain::kBatch, chain.pump_batch(static_cast<std::uint8_t>(i)))
          << "batch " << i << " at payload " << payload;
    }
  }
}

TEST(ZeroAllocTest, WarmBatchedSlotIsAllocationFree) {
  // The batched path stages through arena scratch and std::array buffers;
  // once pools and arena slabs are warm, a full kBatch-packet slot must not
  // touch the heap — the counting allocator is the proof, the bench --strict
  // gate is the ongoing enforcement.
  for (const std::size_t payload : {64u, 256u, 1250u}) {
    EntityChain chain(payload);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(EntityChain::kBatch, chain.pump_batch(static_cast<std::uint8_t>(i)));
    }
    const std::size_t before = g_allocs.load();
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ(EntityChain::kBatch, chain.pump_batch(static_cast<std::uint8_t>(i)));
    }
    EXPECT_EQ(0u, g_allocs.load() - before)
        << "warm batched slot allocated at payload " << payload;
  }
}

TEST(ZeroAllocTest, WarmE2eUplinkPacketIsAllocationFree) {
  // Full e2e_system path, grant-free UM uplink. All packet records and
  // creation events are registered up front; the simulation then runs to
  // just before the last packet is created, a heap snapshot is taken, and
  // the last packet's complete journey — app, SDAP/PDCP/RLC, configured
  // grant, MAC PDU, radio, gNB receive chain, UPF delivery — must finish
  // without a single heap allocation.
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/7);
  E2eSystem sys(cfg);

  // 4 ms spacing keeps one packet in flight at a time: the DDDU pattern has
  // a UL occasion every 2 ms, and two packets sharing one occasion can be
  // PDCP-reordered by their independent gNB processing jitter — the
  // reordering map is the *intended* (allocating) path for that case, not
  // the in-order steady state this test pins down.
  constexpr int kPackets = 48;
  const Nanos spacing{4'000'000};
  for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(Nanos{i * spacing.count()});

  const Nanos last_created{(kPackets - 1) * spacing.count()};
  sys.run_until(last_created - Nanos{1});
  const std::size_t before = g_allocs.load();
  sys.run_until(Nanos::max());
  const std::size_t during = g_allocs.load() - before;

  ASSERT_EQ(static_cast<std::size_t>(kPackets), sys.records().size());
  for (const PacketRecord& r : sys.records()) {
    ASSERT_TRUE(r.ok) << "packet " << r.seq << " not delivered";
  }
  EXPECT_EQ(0u, during) << "warm e2e uplink packet allocated on the heap";
}

}  // namespace
}  // namespace u5g
