// Tests for the traffic generators (src/app).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "app/traffic.hpp"
#include "common/stats.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

TEST(UniformInPatternTest, OneArrivalPerPeriodInsideIt) {
  Simulator sim;
  UniformInPattern src{2_ms, Rng{5}};
  std::vector<Nanos> arrivals;
  std::vector<int> seqs;
  src.start(sim, 50, [&](Nanos now, int seq) {
    arrivals.push_back(now);
    seqs.push_back(seq);
  });
  sim.run_until();
  ASSERT_EQ(arrivals.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], i);
    // Arrival i lies within period i.
    EXPECT_GE(arrivals[static_cast<std::size_t>(i)], 2_ms * i);
    EXPECT_LT(arrivals[static_cast<std::size_t>(i)], 2_ms * (i + 1));
  }
}

TEST(UniformInPatternTest, OffsetsAreSpread) {
  Simulator sim;
  UniformInPattern src{1_ms, Rng{6}};
  RunningStats offsets;
  src.start(sim, 500, [&](Nanos now, int seq) {
    offsets.add((now - 1_ms * seq).us());
  });
  sim.run_until();
  // Uniform over [0, 1000) µs: mean ~500, std ~289.
  EXPECT_NEAR(offsets.mean(), 500.0, 50.0);
  EXPECT_NEAR(offsets.stddev(), 289.0, 40.0);
}

TEST(PeriodicTrafficTest, ExactGrid) {
  Simulator sim;
  PeriodicTraffic src{500_us, 100_us};
  std::vector<Nanos> arrivals;
  src.start(sim, 5, [&](Nanos now, int) { arrivals.push_back(now); });
  sim.run_until();
  ASSERT_EQ(arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals[static_cast<std::size_t>(i)], 100_us + 500_us * i);
  }
}

TEST(PoissonTrafficTest, MeanInterarrival) {
  Simulator sim;
  PoissonTraffic src{1_ms, Rng{7}};
  std::vector<Nanos> arrivals;
  src.start(sim, 2000, [&](Nanos now, int) { arrivals.push_back(now); });
  sim.run_until();
  ASSERT_EQ(arrivals.size(), 2000u);
  RunningStats gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.add((arrivals[i] - arrivals[i - 1]).us());
  }
  EXPECT_NEAR(gaps.mean(), 1000.0, 60.0);
  // Exponential: std ~ mean.
  EXPECT_NEAR(gaps.stddev(), 1000.0, 120.0);
}

TEST(TrafficTest, StopsAfterCount) {
  Simulator sim;
  PoissonTraffic src{10_us, Rng{8}};
  int n = 0;
  src.start(sim, 7, [&](Nanos, int) { ++n; });
  sim.run_until();
  EXPECT_EQ(n, 7);
  EXPECT_TRUE(sim.idle());
}

// ---------------------------------------------------------------------------
// poisson_count: the aggregate per-slot arrival draw of a UE population

TEST(PoissonCountTest, NonPositiveMeanDrawsNothingAndConsumesNoRandomness) {
  Rng rng{9};
  Rng twin{9};
  EXPECT_EQ(poisson_count(rng, 0.0, 1.0), 0);
  EXPECT_EQ(poisson_count(rng, -2.0, std::exp(2.0)), 0);
  EXPECT_EQ(rng.next_u64(), twin.next_u64()) << "a zero-mean draw must not advance the stream";
}

TEST(PoissonCountTest, ExactBranchMatchesPoissonMoments) {
  // Mean below the exact-branch cap: Knuth's product method, stopping at
  // the caller's precomputed limit exp(-mean).
  constexpr double kMean = 3.5;
  constexpr int kDraws = 40'000;
  Rng rng{11};
  RunningStats k;
  int zeros = 0;
  for (int i = 0; i < kDraws; ++i) {
    const int n = poisson_count(rng, kMean, std::exp(-kMean));
    ASSERT_GE(n, 0);
    zeros += n == 0 ? 1 : 0;
    k.add(n);
  }
  EXPECT_NEAR(k.mean(), kMean, 0.05);
  EXPECT_NEAR(k.variance(), kMean, 0.15);  // Poisson: variance == mean
  EXPECT_NEAR(static_cast<double>(zeros) / kDraws, std::exp(-kMean), 0.005);
}

TEST(PoissonCountTest, LargeMeanBranchMatchesPoissonMoments) {
  // Above the exact-branch cap the draw is a moment-matched rounded normal,
  // which does not use `limit`.
  constexpr double kMean = 500.0;
  constexpr int kDraws = 20'000;
  Rng rng{12};
  RunningStats k;
  for (int i = 0; i < kDraws; ++i) {
    const int n = poisson_count(rng, kMean, std::exp(-kMean));
    ASSERT_GE(n, 0);
    k.add(n);
  }
  EXPECT_NEAR(k.mean(), kMean, 1.0);
  EXPECT_NEAR(k.variance(), kMean, 25.0);
}

}  // namespace
}  // namespace u5g
