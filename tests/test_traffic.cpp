// Tests for the aggregate arrival draws (src/app/traffic.hpp).

#include <gtest/gtest.h>

#include <cmath>

#include "app/traffic.hpp"
#include "common/stats.hpp"

namespace u5g {
namespace {

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
