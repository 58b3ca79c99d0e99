// Unit tests for src/mac: SR procedure, configured grants, the HARQ BLER
// model (core/repetition.hpp), BSR,
// MAC PDU multiplexing, and the scheduler's timing decisions.

#include <gtest/gtest.h>

#include "core/repetition.hpp"
#include "mac/bsr.hpp"
#include "mac/configured_grant.hpp"
#include "mac/mac_pdu.hpp"
#include "mac/sched_request.hpp"
#include "mac/scheduler.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

constexpr Nanos kSym{17'857};
constexpr Nanos kSlot{250'000};

// ---------------------------------------------------------------------------
// SR procedure

TEST(SrProcedureTest, EverySymbolUsesNextUlSymbol) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  SrProcedure sr{SrConfig::every_symbol()};
  const auto op = sr.next_sr_opportunity(dm, 1_ns);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->start, kSlot + kSym * 6);  // first UL symbol of the M slot
  EXPECT_EQ(op->duration(), kSym);
}

TEST(SrProcedureTest, PerSlotGridAlignsToUlSlots) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);  // U slot at 1.5 ms
  SrProcedure sr{SrConfig::per_slot(kMu1)};
  const auto op = sr.next_sr_opportunity(dddu, 1_ns);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->start, Nanos{1'500'000});
  // From inside the UL slot, the next grid point is the next period's U slot.
  const auto op2 = sr.next_sr_opportunity(dddu, Nanos{1'500'001});
  ASSERT_TRUE(op2.has_value());
  EXPECT_EQ(op2->start, Nanos{3'500'000});
}

TEST(SrProcedureTest, OnBoundaryArrivalCatchesCurrentWindow) {
  // Pins the align_up/align_down convention at the SR grid (audited in the
  // LBT PR): an arrival exactly on a grid point whose window has not yet
  // started belongs to the CURRENT period — `align_down` finds this
  // period's window and the `w->start >= t` guard accepts it; the
  // `from == t ? from + periodicity` bump only applies once the window is
  // genuinely behind the arrival.
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);  // U slot at 1.5 ms
  SrProcedure sr{SrConfig::per_slot(kMu1)};
  // 1.5 ms is both a grid point and the UL window start: usable immediately.
  const auto on = sr.next_sr_opportunity(dddu, Nanos{1'500'000});
  ASSERT_TRUE(on.has_value());
  EXPECT_EQ(on->start, Nanos{1'500'000});
  // On the grid point one slot *before* the UL slot: still this period.
  const auto before = sr.next_sr_opportunity(dddu, Nanos{1'000'000});
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->start, Nanos{1'500'000});
}

TEST(SrProcedureTest, TransmissionBudget) {
  SrProcedure sr{SrConfig{Nanos::zero(), 1, 3}};
  EXPECT_FALSE(sr.exhausted());
  for (int i = 0; i < 3; ++i) sr.on_sr_sent();
  EXPECT_TRUE(sr.exhausted());
  sr.reset();
  EXPECT_FALSE(sr.exhausted());
  EXPECT_EQ(sr.transmissions(), 0);
}

// ---------------------------------------------------------------------------
// Configured grants

TEST(ConfiguredGrantTest, DenseOccasions) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const ConfiguredGrant cg{UeId{1}, ConfiguredGrantConfig::every_symbol(128, 2)};
  const auto g = cg.next_occasion(dm, 1_ns);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->tx_start, kSlot + kSym * 6);
  EXPECT_EQ(g->tx_end, kSlot + kSym * 8);
  EXPECT_TRUE(g->configured);
  EXPECT_EQ(g->tb_bytes, 128u);
}

TEST(ConfiguredGrantTest, PeriodicOnePerGridPeriod) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);  // 2 ms period, U at 1.5
  const ConfiguredGrant cg{UeId{1}, ConfiguredGrantConfig::periodic(2_ms, 256, 4)};
  const auto g1 = cg.next_occasion(dddu, 0_ns);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->tx_start, Nanos{1'500'000});
  // Just after that occasion started: next period's occasion.
  const auto g2 = cg.next_occasion(dddu, g1->tx_start + 1_ns);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->tx_start, Nanos{3'500'000});
}

TEST(ConfiguredGrantTest, OnBoundarySemantics) {
  // Same boundary convention as the SR grid, with the offset phase live.
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);  // 2 ms period, U at 1.5
  const ConfiguredGrant cg{UeId{1}, ConfiguredGrantConfig::periodic(2_ms, 256, 4)};
  // Arriving exactly when the occasion's window starts: usable, not skipped.
  const auto at_window = cg.next_occasion(dddu, Nanos{1'500'000});
  ASSERT_TRUE(at_window.has_value());
  EXPECT_EQ(at_window->tx_start, Nanos{1'500'000});
  // Arriving exactly on the next grid point (2 ms): that period's window.
  const auto at_grid = cg.next_occasion(dddu, 2_ms);
  ASSERT_TRUE(at_grid.has_value());
  EXPECT_EQ(at_grid->tx_start, Nanos{3'500'000});
  // Offset shifts the grid phase without changing the boundary rule.
  const ConfiguredGrant staggered{
      UeId{2}, ConfiguredGrantConfig::periodic(2_ms, 256, 4, Nanos{500'000})};
  const auto off = staggered.next_occasion(dddu, Nanos{500'000});
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->tx_start, Nanos{1'500'000});  // this offset-period's UL window
}

TEST(ConfiguredGrantTest, OccasionsPerSecond) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const ConfiguredGrant per_period{UeId{1}, ConfiguredGrantConfig::periodic(500_us, 128, 2)};
  // One occasion each 0.5 ms -> 2000/s.
  EXPECT_NEAR(per_period.occasions_per_second(dm), 2000.0, 1.0);
  const ConfiguredGrant dense{UeId{1}, ConfiguredGrantConfig::every_symbol(128, 2)};
  EXPECT_GT(dense.occasions_per_second(dm), per_period.occasions_per_second(dm));
}

// ---------------------------------------------------------------------------
// HARQ

TEST(HarqTest, EffectiveBlerDecreasesPerAttempt) {
  EXPECT_DOUBLE_EQ(effective_bler(0.1, 1), 0.1);
  EXPECT_NEAR(effective_bler(0.1, 2), 0.01, 1e-12);
  EXPECT_LT(effective_bler(0.1, 4), effective_bler(0.1, 2));
}

// ---------------------------------------------------------------------------
// BSR

class BsrRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BsrRoundTripTest, BucketCoversValue) {
  const std::size_t bytes = GetParam();
  const int idx = bsr_index(bytes);
  EXPECT_GE(idx, 0);
  EXPECT_LE(idx, 31);
  if (bytes == 0) {
    EXPECT_EQ(idx, 0);
  } else {
    EXPECT_GT(idx, 0);
    // The bucket's assumed size covers the real backlog (grants sized from
    // the index are never too small), except in the saturated top bucket.
    if (idx < 31) {
      EXPECT_GE(bsr_bucket_bytes(idx), bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BsrRoundTripTest,
                         ::testing::Values(0, 1, 10, 11, 64, 500, 9'999, 100'000, 10'000'000));

TEST(BsrTest, IndexMonotone) {
  int prev = 0;
  for (std::size_t b : {std::size_t{1}, std::size_t{20}, std::size_t{300}, std::size_t{5'000},
                        std::size_t{80'000}}) {
    const int idx = bsr_index(b);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(BsrTest, CeEncodeDecode) {
  const ShortBsr ce = ShortBsr::for_bytes(1000, /*lcg=*/3);
  const ShortBsr back = ShortBsr::decode(ce.encode());
  EXPECT_EQ(back.lcg, 3);
  EXPECT_EQ(back.index, ce.index);
}

// ---------------------------------------------------------------------------
// MAC PDU

TEST(MacPduTest, RoundTripWithPadding) {
  MacSubPdus sub;
  sub.push_back(MacSubPdu{Lcid::ShortBsr, ByteBuffer(1, 0x21)});
  sub.push_back(MacSubPdu{Lcid::Drb1, ByteBuffer(10, 0x42)});
  ByteBuffer tb = build_mac_pdu(sub, 64);
  EXPECT_EQ(tb.size(), 64u);

  const auto parsed = parse_mac_pdu(std::move(tb));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].lcid, Lcid::ShortBsr);
  EXPECT_EQ((*parsed)[1].lcid, Lcid::Drb1);
  EXPECT_EQ((*parsed)[1].payload.size(), 10u);
  EXPECT_EQ((*parsed)[1].payload.bytes()[0], 0x42);
}

TEST(MacPduTest, ExactFitNoPadding) {
  MacSubPdus sub;
  sub.push_back(MacSubPdu{Lcid::Drb1, ByteBuffer(5, 0x1)});
  ByteBuffer tb = build_mac_pdu(sub, kMacSubheaderBytes + 5);
  const auto parsed = parse_mac_pdu(std::move(tb));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(MacPduTest, OverflowThrows) {
  MacSubPdus sub;
  sub.push_back(MacSubPdu{Lcid::Drb1, ByteBuffer(100, 0x1)});
  EXPECT_THROW(build_mac_pdu(sub, 50), std::length_error);
}

TEST(MacPduTest, MalformedParseReturnsNullopt) {
  ByteBuffer bad(2, 0x01);  // LCID 1 then a truncated length field
  EXPECT_FALSE(parse_mac_pdu(std::move(bad)).has_value());
  ByteBuffer bad2(4);
  bad2.bytes()[0] = 0x01;
  bad2.bytes()[1] = 0x00;
  bad2.bytes()[2] = 0x50;  // claims 80 bytes, only 1 present
  EXPECT_FALSE(parse_mac_pdu(std::move(bad2)).has_value());
}

// ---------------------------------------------------------------------------
// Scheduler

TEST(SchedulerTest, UlGrantTimelineIdealised) {
  const FddConfig fdd{kMu2};
  MacScheduler sched{fdd, SchedulerParams::idealised()};
  // SR decoded mid-slot 0: decision at slot 1, control at slot 1, PUSCH
  // right after the control symbol.
  const auto plan = sched.plan_ul_grant(UeId{1}, Nanos{100'000});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->control.start, kSlot);
  EXPECT_EQ(plan->control.end, kSlot + kSym);
  EXPECT_EQ(plan->grant.tx_start, kSlot + kSym);
  EXPECT_EQ(plan->grant.duration(), kSym * 2);
}

TEST(SchedulerTest, UlGrantHonoursUePrep) {
  const FddConfig fdd{kMu2};
  SchedulerParams p;
  p.ue_min_prep = 100_us;
  MacScheduler sched{fdd, p};
  const auto plan = sched.plan_ul_grant(UeId{1}, 1_ns);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->grant.tx_start - plan->control.end, 100_us);
}

TEST(SchedulerTest, DmGrantBasedCrossesPeriod) {
  // The §5 headline: on DM, the SR->grant->data handshake lands the data in
  // the *next* TDD period's UL region.
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  MacScheduler sched{dm, SchedulerParams::idealised()};
  // SR decoded at the end of period 0's UL region.
  const auto plan = sched.plan_ul_grant(UeId{1}, kSlot * 2 - kSym);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->grant.tx_start, kSlot * 3);  // next period's M-slot tail
}

TEST(SchedulerTest, DlPlanWaitsForGranuleStart) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  MacScheduler sched{dm, SchedulerParams::idealised()};
  // Ready just after slot 0 starts: served in the M slot, completing at the
  // end of its DL run.
  const auto a = sched.plan_dl(UeId{1}, 1_ns, 64);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tx_start, kSlot);
  EXPECT_EQ(a->tx_end, kSlot + kSym * 4);
}

TEST(SchedulerTest, RadioLeadDelaysService) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  SchedulerParams p;
  p.radio_lead = kSlot;  // one slot of staging
  MacScheduler sched{dm, p};
  const auto a = sched.plan_dl(UeId{1}, 1_ns, 64);
  ASSERT_TRUE(a.has_value());
  EXPECT_GE(a->tx_start, kSlot + 1_ns);
  EXPECT_EQ(a->tx_start, kSlot * 2);  // slot 1 start is < ready+lead, so slot 2
}

TEST(SchedulerTest, BookingSerialisesDl) {
  const FddConfig fdd{kMu2};
  MacScheduler sched{fdd, SchedulerParams::idealised()};
  const auto a1 = sched.plan_dl(UeId{1}, 1_ns, 64);
  const auto a2 = sched.plan_dl(UeId{2}, 1_ns, 64);
  ASSERT_TRUE(a1 && a2);
  EXPECT_GE(a2->tx_start, a1->tx_end);  // no double-booking
  sched.reset();
  const auto a3 = sched.plan_dl(UeId{3}, 1_ns, 64);
  EXPECT_EQ(a3->tx_start, a1->tx_start);  // reset forgets bookings
}

TEST(SchedulerTest, BookingSerialisesUl) {
  const FddConfig fdd{kMu2};
  MacScheduler sched{fdd, SchedulerParams::idealised()};
  const auto p1 = sched.plan_ul_grant(UeId{1}, 1_ns);
  const auto p2 = sched.plan_ul_grant(UeId{2}, 1_ns);
  ASSERT_TRUE(p1 && p2);
  EXPECT_GE(p2->grant.tx_start, p1->grant.tx_end);
}

TEST(SchedulerTest, NoUplinkMeansNoGrant) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  MacScheduler sched{all_dl, SchedulerParams::idealised()};
  EXPECT_FALSE(sched.plan_ul_grant(UeId{1}, 1_ns).has_value());
}

}  // namespace
}  // namespace u5g
