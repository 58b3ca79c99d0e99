// Unit tests for src/phy: numerology arithmetic, frame clock,
// modulation/MCS, transport-block sizing, channel models, sample accounting,
// PHY timing.

#include <gtest/gtest.h>

#include "phy/channel.hpp"
#include "phy/frame_structure.hpp"
#include "phy/modulation.hpp"
#include "phy/numerology.hpp"
#include "phy/phy_timing.hpp"
#include "phy/samples.hpp"
#include "phy/transport_block.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Numerology

class NumerologyTest : public ::testing::TestWithParam<int> {};

TEST_P(NumerologyTest, DerivedQuantities) {
  const int mu = GetParam();
  const Numerology n{mu};
  EXPECT_EQ(n.mu(), mu);
  EXPECT_EQ(n.slot_duration().count(), 1'000'000 >> mu);
  // Symbols tile the slot (within integer-division remainder).
  EXPECT_LE(n.symbol_duration().count() * kSymbolsPerSlot, n.slot_duration().count());
  EXPECT_GT(n.symbol_duration().count() * (kSymbolsPerSlot + 1), n.slot_duration().count());
}

INSTANTIATE_TEST_SUITE_P(AllMu, NumerologyTest, ::testing::Range(0, 7));

TEST(NumerologyTest, PaperHeadlineValues) {
  EXPECT_EQ(kMu0.slot_duration(), 1_ms);
  EXPECT_EQ(kMu1.slot_duration(), 500_us);
  EXPECT_EQ(kMu2.slot_duration(), 250_us);   // §5: the only feasible FR1 slot
  EXPECT_EQ(kMu6.slot_duration().count(), 15'625);  // §1: 15.625 µs in FR2
}

TEST(NumerologyTest, OutOfRangeThrows) {
  EXPECT_THROW(Numerology{-1}, std::invalid_argument);
  EXPECT_THROW(Numerology{7}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SlotClock

class SlotClockTest : public ::testing::TestWithParam<int> {};

TEST_P(SlotClockTest, SlotMapping) {
  const SlotClock clk{Numerology{GetParam()}};
  const Nanos d = clk.slot_duration();
  EXPECT_EQ(clk.slot_at(Nanos::zero()), 0);
  EXPECT_EQ(clk.slot_at(d - Nanos{1}), 0);
  EXPECT_EQ(clk.slot_at(d), 1);
  EXPECT_EQ(clk.slot_at(d * 7 + Nanos{1}), 7);
  EXPECT_EQ(clk.slot_start(3), d * 3);
  EXPECT_EQ(clk.slot_end(3), d * 4);
  EXPECT_EQ(clk.next_slot_boundary(d * 2 + Nanos{1}), d * 3);
  EXPECT_EQ(clk.next_slot_boundary(d * 2), d * 2);  // boundary is "at or after"
}

TEST_P(SlotClockTest, NegativeTimes) {
  const SlotClock clk{Numerology{GetParam()}};
  const Nanos d = clk.slot_duration();
  EXPECT_EQ(clk.slot_at(Nanos{-1}), -1);
  EXPECT_EQ(clk.slot_at(Nanos::zero() - d), -1);
  EXPECT_EQ(clk.slot_at(Nanos::zero() - d - Nanos{1}), -2);
}

INSTANTIATE_TEST_SUITE_P(AllMu, SlotClockTest, ::testing::Range(0, 7));

TEST(SlotClockTest, SymbolMapping) {
  const SlotClock clk{kMu1};  // 500 µs slots, ~35.7 µs symbols
  EXPECT_EQ(clk.symbol_at(Nanos::zero()), 0);
  EXPECT_EQ(clk.symbol_at(clk.symbol_duration()), 1);
  EXPECT_EQ(clk.symbol_at(clk.slot_duration() - Nanos{1}), 13);  // remainder clamps
  EXPECT_EQ(clk.symbol_start(0, 0), Nanos{0});
  EXPECT_EQ(clk.symbol_start(1, 2), clk.slot_duration() + clk.symbol_duration() * 2);
}

// ---------------------------------------------------------------------------
// Modulation / MCS

TEST(McsTest, TableShape) {
  const auto table = mcs_table();
  ASSERT_EQ(table.size(), 29u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].index, static_cast<int>(i));
    EXPECT_GT(table[i].rate_x1024, 0);
    EXPECT_LT(table[i].rate_x1024, 1024);
  }
}

TEST(McsTest, SpectralEfficiencyMonotone) {
  // Bits per RE grows with the MCS index — except for the standard's own
  // tiny dip at the 16QAM->64QAM switch (MCS 16: 2.5703, MCS 17: 2.5664 in
  // TS 38.214 Table 5.1.3.1-1), which we reproduce faithfully.
  const auto table = mcs_table();
  for (std::size_t i = 1; i < table.size(); ++i) {
    const bool modulation_switch = table[i].modulation != table[i - 1].modulation;
    const double slack = modulation_switch ? 0.01 : 0.0;
    EXPECT_GE(table[i].bits_per_re() + slack, table[i - 1].bits_per_re()) << "at index " << i;
  }
}

TEST(McsTest, LookupAndBounds) {
  EXPECT_EQ(mcs(0).modulation, Modulation::QPSK);
  EXPECT_EQ(mcs(28).modulation, Modulation::QAM64);
  EXPECT_THROW(static_cast<void>(mcs(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(mcs(29)), std::out_of_range);
}

TEST(McsTest, HighestBelowRate) {
  const McsEntry e = highest_mcs_below_rate(0.5);
  EXPECT_LT(e.code_rate(), 0.5);
  // It must not be beaten by any other sub-0.5 entry.
  for (const McsEntry& cand : mcs_table()) {
    if (cand.code_rate() < 0.5) {
      EXPECT_LE(cand.bits_per_re(), e.bits_per_re());
    }
  }
}

TEST(ModulationTest, BitsPerSymbol) {
  EXPECT_EQ(bits_per_symbol(Modulation::QPSK), 2);
  EXPECT_EQ(bits_per_symbol(Modulation::QAM256), 8);
  EXPECT_EQ(to_string(Modulation::QAM64), "64QAM");
}

// ---------------------------------------------------------------------------
// Transport blocks

TEST(TransportBlockTest, DataReCount) {
  const Allocation a{.n_prb = 10, .n_symbols = 14, .n_layers = 1, .dmrs_overhead_re = 12};
  EXPECT_EQ(data_re_count(a), 10 * (12 * 14 - 12));
  EXPECT_EQ(data_re_count(Allocation{.n_prb = 0, .n_symbols = 14}), 0);
  EXPECT_EQ(data_re_count(Allocation{.n_prb = 5, .n_symbols = 0}), 0);
}

TEST(TransportBlockTest, TbsMonotoneInResources) {
  const McsEntry m = mcs(10);
  int prev = 0;
  for (int prb = 1; prb <= 50; prb += 7) {
    const int tbs = transport_block_size_bits(Allocation{.n_prb = prb, .n_symbols = 14}, m);
    EXPECT_GE(tbs, prev);
    prev = tbs;
  }
}

TEST(TransportBlockTest, TbsMonotoneInMcs) {
  // Monotone in MCS index, modulo the standard's own efficiency dip at the
  // 16QAM->64QAM switch (see McsTest.SpectralEfficiencyMonotone).
  const Allocation a{.n_prb = 20, .n_symbols = 14};
  int prev = 0;
  for (int i = 0; i < 29; ++i) {
    const int tbs = transport_block_size_bits(a, mcs(i));
    const bool modulation_switch = i > 0 && mcs(i).modulation != mcs(i - 1).modulation;
    const int slack = modulation_switch ? data_re_count(a) / 50 : 0;  // ~0.02 bit/RE
    EXPECT_GE(tbs + slack, prev) << "MCS " << i;
    prev = tbs;
  }
}

TEST(TransportBlockTest, TbsByteAligned) {
  for (int prb : {1, 3, 17, 51}) {
    const int tbs = transport_block_size_bits(Allocation{.n_prb = prb, .n_symbols = 14}, mcs(15));
    EXPECT_EQ(tbs % 8, 0) << prb;
  }
}

TEST(TransportBlockTest, SegmentationBoundaries) {
  EXPECT_EQ(segment_transport_block(0).n_code_blocks, 0);
  EXPECT_EQ(segment_transport_block(100).n_code_blocks, 1);
  EXPECT_EQ(segment_transport_block(kMaxCodeBlockBits - 24).n_code_blocks, 1);
  EXPECT_GE(segment_transport_block(kMaxCodeBlockBits).n_code_blocks, 2);
  const auto seg = segment_transport_block(100'000);
  EXPECT_GE(seg.n_code_blocks * seg.bits_per_block, 100'000 + 24);
  EXPECT_LE(seg.bits_per_block, kMaxCodeBlockBits);
}

class PrbsNeededTest : public ::testing::TestWithParam<int> {};

TEST_P(PrbsNeededTest, AllocationFitsPayload) {
  const int payload = GetParam();
  const McsEntry m = mcs(15);
  const int prb = prbs_needed(payload, 14, m);
  ASSERT_GT(prb, 0);
  // The chosen PRB count fits, one fewer does not.
  EXPECT_GE(transport_block_size_bits(Allocation{.n_prb = prb, .n_symbols = 14}, m), payload * 8);
  if (prb > 1) {
    EXPECT_LT(transport_block_size_bits(Allocation{.n_prb = prb - 1, .n_symbols = 14}, m),
              payload * 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, PrbsNeededTest, ::testing::Values(16, 64, 200, 1500, 9000));

TEST(PrbsNeededTest, ImpossibleReturnsZero) {
  EXPECT_EQ(prbs_needed(1'000'000, 2, mcs(0), 20), 0);
}

// ---------------------------------------------------------------------------
// Channel

TEST(LinkModelTest, BlerMonotoneInSnr) {
  const McsEntry m = mcs(15);
  double prev = 1.0;
  for (double snr = -10.0; snr <= 40.0; snr += 2.0) {
    const double b = LinkModel{snr}.bler(m);
    EXPECT_LE(b, prev + 1e-12);
    prev = b;
  }
}

TEST(LinkModelTest, HalfAtThreshold) {
  const McsEntry m = mcs(10);
  LinkModel link{LinkModel::threshold_db(m)};
  EXPECT_NEAR(link.bler(m), 0.5, 1e-9);
}

TEST(LinkModelTest, ThresholdGrowsWithEfficiency) {
  EXPECT_LT(LinkModel::threshold_db(mcs(0)), LinkModel::threshold_db(mcs(15)));
  EXPECT_LT(LinkModel::threshold_db(mcs(15)), LinkModel::threshold_db(mcs(28)));
}

TEST(LinkModelTest, HighSnrDeliversReliably) {
  const McsEntry m = mcs(5);
  LinkModel link{LinkModel::threshold_db(m) + 12.0};
  Rng rng(3);
  int ok = 0;
  for (int i = 0; i < 10'000; ++i) ok += link.transmit_ok(m, rng) ? 1 : 0;
  EXPECT_GT(ok, 9990);
}

TEST(MmWaveBlockageTest, LosFractionMatchesParams) {
  MmWaveBlockage::Params p;
  MmWaveBlockage b{p, Rng{17}};
  EXPECT_NEAR(b.los_fraction(), 400.0 / 550.0, 1e-9);
  // Empirically: delivery over a long horizon approaches LoS fraction
  // (blocked transmissions almost always fail).
  int ok = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) ok += b.transmit_ok(Nanos{static_cast<std::int64_t>(i) * 1'000'000}) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ok) / kN, b.los_fraction(), 0.1);
}

// ---------------------------------------------------------------------------
// Samples / PHY timing

TEST(SampleRateTest, Conversions) {
  const SampleRate sr{};  // 23.04 Msps, 4 B/sample
  EXPECT_EQ(sr.samples_in(1_ms), 23'040);
  EXPECT_EQ(sr.samples_in(kMu1.slot_duration()), 11'520);
}

TEST(PhyTimingTest, ScalesWithCodeBlocks) {
  const PhyTimingParams p = PhyTimingParams::software_i7();
  const PhyTimingModel m{p};
  const Nanos small = m.encode_time(1'000);
  const Nanos large = m.encode_time(100'000);
  EXPECT_EQ(small, p.encode_base + p.encode_per_cb);  // one code block
  // 100k bits span a dozen code blocks; encode adds one per-block cost each.
  const int blocks = segment_transport_block(100'000).n_code_blocks;
  EXPECT_GE(blocks, 10);
  EXPECT_EQ(large, p.encode_base + p.encode_per_cb * blocks);
}

}  // namespace
}  // namespace u5g
