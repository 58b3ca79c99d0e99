// Tests for the X6 (repetition vs HARQ) and X7 (random access) extensions.

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/rach.hpp"
#include "core/repetition.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Reliability schemes

TEST(ReliabilitySchemeTest, ResidualLossSharedByBothSchemes) {
  ReliabilitySchemeParams p;
  p.per_tx_bler = 0.1;
  p.max_attempts = 4;
  // 0.1 * 0.01 * 0.001 * 0.0001 = 1e-10.
  EXPECT_NEAR(residual_loss(p), 1e-10, 1e-12);

  // Monte-Carlo: both schemes deliver all packets at this loss level.
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  Rng rng(3);
  int h_ok = 0, r_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    const Nanos at = dm.period() * (2 * i) + 13_us;
    h_ok += harq_outcome(dm, at, p, rng).delivered ? 1 : 0;
    r_ok += repetition_outcome(dm, at, p, rng).delivered ? 1 : 0;
  }
  EXPECT_EQ(h_ok, 3000);
  EXPECT_EQ(r_ok, 3000);
}

TEST(ReliabilitySchemeTest, CleanChannelIdenticalLatency) {
  ReliabilitySchemeParams p;
  p.per_tx_bler = 0.0;
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  Rng rng(4);
  const Nanos at = dm.period() * 8 + 1_ns;
  const auto h = harq_outcome(dm, at, p, rng);
  const auto r = repetition_outcome(dm, at, p, rng);
  ASSERT_TRUE(h.delivered && r.delivered);
  EXPECT_EQ(h.completion, r.completion);
  EXPECT_EQ(h.attempts, 1);
  EXPECT_EQ(r.attempts, 1);
}

TEST(ReliabilitySchemeTest, RepetitionRecoversFasterUnderLoss) {
  ReliabilitySchemeParams p;
  p.per_tx_bler = 0.5;
  p.combining_factor = 1.0;  // no combining: each leg independent
  p.harq_feedback_delay = 500_us;
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  Rng rng(5);
  RunningStats h_lat, r_lat;
  for (int i = 0; i < 5000; ++i) {
    const Nanos at = dm.period() * (3 * i) + 7_us;
    const auto h = harq_outcome(dm, at, p, rng);
    const auto r = repetition_outcome(dm, at, p, rng);
    if (h.delivered) h_lat.add((h.completion - at).us());
    if (r.delivered) r_lat.add((r.completion - at).us());
  }
  EXPECT_GT(h_lat.mean(), r_lat.mean() + 100.0);  // feedback delay shows up
  EXPECT_GT(h_lat.max(), r_lat.max());
}

TEST(ReliabilitySchemeTest, ExhaustedBudgetReportsUndelivered) {
  ReliabilitySchemeParams p;
  p.per_tx_bler = 1.0;
  p.combining_factor = 1.0;
  p.max_attempts = 3;
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  Rng rng(6);
  const auto h = harq_outcome(dm, dm.period() * 8, p, rng);
  const auto r = repetition_outcome(dm, dm.period() * 8, p, rng);
  EXPECT_FALSE(h.delivered);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(h.attempts, 3);
  EXPECT_EQ(r.attempts, 3);
}

// ---------------------------------------------------------------------------
// Random access

TEST(RachTest, TimelineIsContiguousAndFeasible) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Nanos base = align_up(dm.period() * 8, RachConfig::typical().prach_periodicity);
  const Timeline tl = trace_random_access(dm, base + 1_us);
  ASSERT_TRUE(tl.feasible);
  EXPECT_EQ(tl.steps.front().start, tl.arrival);
  EXPECT_EQ(tl.steps.back().end, tl.completion);
  for (std::size_t i = 1; i < tl.steps.size(); ++i) {
    EXPECT_EQ(tl.steps[i].start, tl.steps[i - 1].end);
  }
  // 4-step: msg1..msg4 all present.
  const std::string r = tl.render();
  EXPECT_NE(r.find("msg1"), std::string::npos);
  EXPECT_NE(r.find("msg2"), std::string::npos);
  EXPECT_NE(r.find("msg3"), std::string::npos);
  EXPECT_NE(r.find("msg4"), std::string::npos);
}

TEST(RachTest, OnGridArrivalUsesCurrentPrachPeriod) {
  // Boundary convention at the PRACH grid (same rule as SR/CG occasions):
  // a UE deciding to access exactly on a grid point takes THIS period's
  // occasion — the wait to msg1 must stay under one PRACH period, not be
  // bumped a whole period by an off-by-one in the align_up fallthrough.
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const RachConfig rc = RachConfig::typical();
  const Nanos base = align_up(dm.period() * 8, rc.prach_periodicity);
  const Timeline tl = trace_random_access(dm, base, rc);
  ASSERT_TRUE(tl.feasible);
  ASSERT_FALSE(tl.steps.empty());
  EXPECT_EQ(tl.steps.front().start, base);
  EXPECT_LT(tl.steps.front().end - base, rc.prach_periodicity);  // msg1 this period
}

TEST(RachTest, TwoStepSkipsMsg3And4) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Nanos base = align_up(dm.period() * 8, RachConfig::two_step().prach_periodicity);
  const Timeline tl = trace_random_access(dm, base + 1_us, RachConfig::two_step());
  ASSERT_TRUE(tl.feasible);
  const std::string r = tl.render();
  EXPECT_NE(r.find("msg1"), std::string::npos);
  EXPECT_NE(r.find("msg2"), std::string::npos);
  EXPECT_EQ(r.find("msg3"), std::string::npos);
  EXPECT_EQ(r.find("msg4"), std::string::npos);
}

TEST(RachTest, PrachWaitDominatesWorstCase) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_rach_worst_case(dm);
  ASSERT_TRUE(wc.feasible);
  // Worst case ≈ PRACH periodicity + the handshake; far beyond 0.5 ms.
  EXPECT_GT(wc.worst, Nanos{10'000'000});
  EXPECT_LT(wc.worst, Nanos{14'000'000});
  EXPECT_GT(wc.worst, 20 * kUrllcOneWayDeadline);
}

TEST(RachTest, TwoStepFasterThanFourStep) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto four = analyze_rach_worst_case(dm, RachConfig::typical());
  const auto two = analyze_rach_worst_case(dm, RachConfig::two_step());
  EXPECT_LT(two.mean, four.mean);
  EXPECT_LT(two.best, four.best);
}

TEST(RachTest, WorksOnFddToo) {
  const FddConfig fdd{kMu2};
  const auto wc = analyze_rach_worst_case(fdd);
  ASSERT_TRUE(wc.feasible);
  // FDD removes the duplex waits but not the PRACH periodicity.
  EXPECT_GT(wc.worst, Nanos{9'000'000});
}

TEST(RachTest, InfeasibleWithoutUplink) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  const Timeline tl = trace_random_access(all_dl, 1_ns);
  EXPECT_FALSE(tl.feasible);
}

}  // namespace
}  // namespace u5g
