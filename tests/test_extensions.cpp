// Tests for the §9 open-problem implementations: the analytical multi-UE
// latency model (X4) and predictive configured grants (X5).

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/multi_ue_model.hpp"
#include "mac/predictive_cg.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// UL capacity

TEST(UlCapacityTest, DmTwoSymbolWindows) {
  // DM at µ2: 8 UL symbols per 0.5 ms period -> 4 two-symbol windows ->
  // 8000 windows/s.
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  EXPECT_NEAR(ul_windows_per_second(dm, 2), 8000.0, 1.0);
  EXPECT_NEAR(ul_windows_per_second(dm, 8), 2000.0, 1.0);  // one per period
  EXPECT_NEAR(ul_windows_per_second(dm, 9), 0.0, 1e-9);    // cannot fit
}

TEST(UlCapacityTest, FddIsDenser) {
  const FddConfig fdd{kMu2};
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  EXPECT_GT(ul_windows_per_second(fdd, 2), ul_windows_per_second(dm, 2) * 3);
}

// ---------------------------------------------------------------------------
// Multi-UE model

TEST(MultiUeModelTest, QueueTermGrowsWithLoad) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  MultiUeModelInput in;
  in.tx_symbols = 2;
  in.per_ue_packets_per_second = 400.0;
  Nanos prev = Nanos::zero();
  for (int n : {1, 2, 4, 8, 12}) {
    in.num_ues = n;
    const auto r = predict_multi_ue_latency(dm, in);
    ASSERT_TRUE(r.stable) << n;
    EXPECT_GE(r.queue_wait_mean, prev);
    EXPECT_EQ(r.total_mean, r.protocol_mean + r.queue_wait_mean);
    prev = r.queue_wait_mean;
  }
}

TEST(MultiUeModelTest, SaturationFlagged) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  MultiUeModelInput in;
  in.num_ues = 10;
  in.per_ue_packets_per_second = 1000.0;  // 10k > 8k capacity
  const auto r = predict_multi_ue_latency(dm, in);
  EXPECT_FALSE(r.stable);
  EXPECT_GT(r.utilisation, 1.0);
}

TEST(MultiUeModelTest, ProtocolTermMatchesAnalyticEngine) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  MultiUeModelInput in;
  in.num_ues = 1;
  in.per_ue_packets_per_second = 1.0;  // negligible load
  const auto r = predict_multi_ue_latency(dm, in);
  LatencyModelParams p;
  p.data_tx_symbols = 2;
  const auto wc = analyze_worst_case(dm, AccessMode::GrantFreeUl, p);
  EXPECT_EQ(r.protocol_mean, wc.mean);
  EXPECT_LT(r.queue_wait_mean, Nanos{1'000});
}

// ---------------------------------------------------------------------------
// Arrival predictor

TEST(ArrivalPredictorTest, LearnsExactPeriod) {
  ArrivalPredictor p;
  for (int i = 1; i <= 10; ++i) p.observe(1_ms * i);
  ASSERT_TRUE(p.warmed_up());
  EXPECT_EQ(p.period_estimate(), 1_ms);
  ASSERT_TRUE(p.predict_next().has_value());
  EXPECT_EQ(*p.predict_next(), 11_ms);
  EXPECT_EQ(p.jitter_estimate(), Nanos::zero());
}

TEST(ArrivalPredictorTest, NotWarmBeforeMinObservations) {
  ArrivalPredictor p{0.25, 3};
  p.observe(1_ms);
  p.observe(2_ms);
  EXPECT_FALSE(p.warmed_up());
  EXPECT_FALSE(p.predict_next().has_value());
  p.observe(3_ms);
  EXPECT_TRUE(p.warmed_up());
}

TEST(ArrivalPredictorTest, TracksJitteredPeriod) {
  ArrivalPredictor p;
  Rng rng(7);
  Nanos t = Nanos::zero();
  for (int i = 0; i < 200; ++i) {
    t += 1_ms + Nanos{static_cast<std::int64_t>(rng.normal(0.0, 30'000.0))};
    p.observe(t);
  }
  EXPECT_NEAR(p.period_estimate().us(), 1000.0, 40.0);
  // Jitter estimate reflects ~E|N(0, sqrt(2)*30us)| = 34us, loosely.
  EXPECT_GT(p.jitter_estimate().us(), 10.0);
  EXPECT_LT(p.jitter_estimate().us(), 90.0);
}

TEST(ArrivalPredictorTest, AdaptsToRateChange) {
  ArrivalPredictor p{0.25, 3};
  for (int i = 1; i <= 10; ++i) p.observe(1_ms * i);
  // The flow speeds up to 0.5 ms periods.
  Nanos t = 10_ms;
  for (int i = 0; i < 40; ++i) {
    t += 500_us;
    p.observe(t);
  }
  EXPECT_NEAR(p.period_estimate().us(), 500.0, 30.0);
}

// ---------------------------------------------------------------------------
// Predictive configured grant

TEST(PredictiveCgTest, ColdStartReturnsNothing) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  PredictiveConfiguredGrant pcg{UeId{1}, 2, 128, 60_us};
  EXPECT_FALSE(pcg.plan_next_occasion(dm, Nanos::zero()).has_value());
}

TEST(PredictiveCgTest, OccasionCoversPredictedArrival) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  PredictiveConfiguredGrant pcg{UeId{1}, 2, 128, 60_us};
  for (int i = 1; i <= 10; ++i) pcg.observe_arrival(1_ms * i);
  const auto occ = pcg.plan_next_occasion(dm, 10_ms + 1_us);
  ASSERT_TRUE(occ.has_value());
  // The occasion opens at or after the data would be ready (arrival at
  // 11 ms, stack lead 60 µs; zero jitter -> zero margin).
  EXPECT_GE(occ->tx_start, 11_ms + 60_us);
  // And within one TDD period of it (the next UL region).
  EXPECT_LE(occ->tx_start, 11_ms + 60_us + dm.period());
  EXPECT_TRUE(occ->configured);
}

TEST(PredictiveCgTest, MarginGrowsWithJitter) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  PredictiveConfiguredGrant calm{UeId{1}, 2, 128, 60_us};
  PredictiveConfiguredGrant noisy{UeId{1}, 2, 128, 60_us};
  Rng rng(9);
  Nanos tc = Nanos::zero();
  Nanos tn = Nanos::zero();
  for (int i = 0; i < 100; ++i) {
    tc += 1_ms;
    calm.observe_arrival(tc);
    tn += 1_ms + Nanos{static_cast<std::int64_t>(rng.normal(0.0, 80'000.0))};
    noisy.observe_arrival(tn);
  }
  const auto occ_calm = calm.plan_next_occasion(dm, tc);
  const auto occ_noisy = noisy.plan_next_occasion(dm, tn);
  ASSERT_TRUE(occ_calm && occ_noisy);
  // Relative to their predicted arrivals, the noisy flow's occasion sits
  // later (larger safety margin).
  const Nanos calm_offset = occ_calm->tx_start - (tc + 1_ms);
  const Nanos noisy_offset = occ_noisy->tx_start - (tn + noisy.predictor().period_estimate());
  EXPECT_GT(noisy_offset, calm_offset);
}

TEST(PredictiveCgTest, ReservationRateEqualsArrivalRate) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  PredictiveConfiguredGrant pcg{UeId{1}, 2, 128, 60_us};
  for (int i = 1; i <= 20; ++i) pcg.observe_arrival(2_ms * i);
  // One reserved window per predicted packet: the reservation period is
  // the arrival period (the §9 waste reduction).
  EXPECT_NEAR(static_cast<double>(pcg.predictor().period_estimate().count()),
              static_cast<double>((2_ms).count()), 20'000.0);
}

}  // namespace
}  // namespace u5g
