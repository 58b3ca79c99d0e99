// Tests for the parallel Monte-Carlo harness: the fork-join crew, seed derivation,
// mergeable accumulators, and the determinism contract — merged statistics
// are bitwise-identical across thread counts {1, 2, 8} and identical to a
// plain serial loop over the same per-replication seeds (including a golden
// check on a bench_fig6-style E2E run at small N).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crew.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/design_space.hpp"
#include "core/e2e_system.hpp"
#include "sim/runner.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Crew

/// Run one parallel_for over [0, n) and return how often each index was hit.
std::vector<int> visit_counts(Crew& crew, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  crew.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  std::vector<int> out;
  out.reserve(n);
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(CrewTest, VisitsEveryIndexExactlyOnce) {
  for (const int width : {1, 2, 4, 8}) {
    Crew crew(width);
    ASSERT_EQ(width, crew.width());
    const auto w = static_cast<std::size_t>(width);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, w - 1, w + 1, std::size_t{1000}}) {
      EXPECT_EQ(std::vector<int>(n, 1), visit_counts(crew, n)) << "width=" << width << " n=" << n;
    }
  }
}

TEST(CrewTest, SlicesFollowTheStaticPartition) {
  // Worker w owns [n·w/W, n·(w+1)/W): slices are contiguous, ordered and
  // disjoint, and their bounds depend only on (n, W).
  Crew crew(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  crew.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(m);
    slices.emplace_back(lo, hi);
  });
  std::sort(slices.begin(), slices.end());
  const std::vector<std::pair<std::size_t, std::size_t>> want{{0, 2}, {2, 5}, {5, 7}, {7, 10}};
  EXPECT_EQ(want, slices);
}

TEST(CrewTest, OneCrewServesManyRuns) {
  Crew crew(4);
  std::atomic<std::size_t> total{0};
  for (int run = 0; run < 100; ++run) {
    crew.parallel_for(static_cast<std::size_t>(run), [&](std::size_t lo, std::size_t hi) {
      total += hi - lo;
    });
  }
  EXPECT_EQ(99u * 100u / 2u, total.load());
}

TEST(CrewTest, WidthOneRunsOnTheCallingThread) {
  Crew crew(1);
  std::vector<std::thread::id> ids;
  crew.parallel_for(5, [&](std::size_t, std::size_t) {
    ids.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(std::vector<std::thread::id>{std::this_thread::get_id()}, ids);
}

TEST(CrewTest, FirstErrorInSliceOrderAfterEverySliceFinished) {
  // At width 4 over n = 8 the slices are [0,2) [2,4) [4,6) [6,8). Index k
  // throws; every other slice must still run to completion, the throw must
  // reach the caller, and the crew must work afterwards.
  constexpr std::size_t kN = 8;
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    Crew crew(4);
    const std::size_t slice_lo = k / 2 * 2;
    std::vector<std::atomic<int>> hits(kN);
    try {
      crew.parallel_for(kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (i == k) throw std::runtime_error{"index " + std::to_string(i)};
          ++hits[i];
        }
      });
      ADD_FAILURE() << "k=" << k << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ("index " + std::to_string(k), e.what());
    }
    for (std::size_t i = 0; i < kN; ++i) {
      if (i >= slice_lo && i < slice_lo + 2) continue;  // the throwing slice
      EXPECT_EQ(1, hits[i].load()) << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(std::vector<int>(kN, 1), visit_counts(crew, kN)) << "k=" << k;
  }
}

TEST(CrewTest, EarlierSliceErrorWins) {
  // Slices 1 and 3 both throw; the caller sees slice 1's error, whatever
  // finished first.
  Crew crew(4);
  try {
    crew.parallel_for(4, [](std::size_t lo, std::size_t) {
      if (lo % 2 == 1) throw std::runtime_error{"slice " + std::to_string(lo)};
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("slice 1", e.what());
  }
}

TEST(CrewTest, HardwareThreadsAtLeastOne) { EXPECT_GE(Crew::hardware_threads(), 1); }

// ---------------------------------------------------------------------------
// Seed derivation

TEST(RunnerSeedTest, ReplicationSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(replication_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);                              // no collisions
  EXPECT_EQ(replication_seed(42, 7), replication_seed(42, 7));  // pure function
  EXPECT_NE(replication_seed(42, 7), replication_seed(43, 7));  // root matters
}

TEST(RunnerSeedTest, SplitEvenlyCoversTotal) {
  for (int total : {0, 1, 7, 100, 2000}) {
    for (int parts : {1, 3, 8}) {
      int sum = 0;
      for (int i = 0; i < parts; ++i) sum += split_evenly(total, parts, i);
      EXPECT_EQ(sum, total) << total << "/" << parts;
    }
  }
}

// ---------------------------------------------------------------------------
// Mergeable accumulators

TEST(MergeTest, SampleSetMergeEqualsSerialAccumulation) {
  Rng rng(5);
  SampleSet serial;
  SampleSet a, b, c;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal(10.0, 3.0);
    serial.add(x);
    (i < 100 ? a : i < 200 ? b : c).add(x);
  }
  a.merge(b);
  a.merge(c);
  ASSERT_EQ(a.samples(), serial.samples());  // byte-identical, order preserved
  EXPECT_EQ(a.quantile(0.999), serial.quantile(0.999));
}

// ---------------------------------------------------------------------------
// run_replications: determinism across thread counts

TEST(RunnerTest, ResultsInIndexOrderAtAnyThreadCount) {
  for (int threads : {1, 2, 8}) {
    const auto out = run_replications(
        37, 123, [](int i, std::uint64_t seed) { return std::pair{i, seed}; }, {threads});
    ASSERT_EQ(out.size(), 37u) << threads;
    for (int i = 0; i < 37; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)].first, i);
      EXPECT_EQ(out[static_cast<std::size_t>(i)].second,
                replication_seed(123, static_cast<std::uint64_t>(i)));
    }
  }
}

TEST(RunnerTest, EmptyAndSingle) {
  EXPECT_TRUE(run_replications(0, 1, [](int, std::uint64_t) { return 0; }).empty());
  const auto one = run_replications(1, 7, [](int, std::uint64_t s) { return s; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], replication_seed(7, 0));
}

TEST(RunnerTest, ExceptionInReplicationPropagates) {
  EXPECT_THROW(run_replications(
                   8, 1,
                   [](int i, std::uint64_t) -> int {
                     if (i == 3) throw std::runtime_error{"replication failed"};
                     return i;
                   },
                   {4}),
               std::runtime_error);
}

/// Monte-Carlo statistic fanned across threads: merged SampleSet must be
/// byte-identical for T in {1, 2, 8} and equal to the hand-written serial
/// loop over the same seeds.
TEST(RunnerTest, MergedStatisticsIndependentOfThreadCount) {
  const auto replicate = [](int, std::uint64_t seed) {
    Rng rng(seed);
    SampleSet s;
    for (int i = 0; i < 200; ++i) s.add(rng.exponential(2.0));
    return s;
  };

  // Reference: plain serial loop, no harness.
  SampleSet serial;
  for (int i = 0; i < 12; ++i) {
    SampleSet part = replicate(i, replication_seed(77, static_cast<std::uint64_t>(i)));
    serial.merge(part);
  }

  for (int threads : {1, 2, 8}) {
    SampleSet merged = merge_replications(run_replications(12, 77, replicate, {threads}));
    ASSERT_EQ(merged.samples(), serial.samples()) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Golden determinism on a bench_fig6-style E2E run at small N

struct Fig6Mini {
  SampleSet dl;
  SampleSet ul;

  void merge(const Fig6Mini& o) {
    dl.merge(o.dl);
    ul.merge(o.ul);
  }
};

Fig6Mini fig6_mini_replication(int packets, std::uint64_t seed) {
  E2eSystem sys(StackConfig::testbed_grant_based(seed));
  const Nanos period = 2_ms;
  Rng rng(seed ^ 0xF16);
  for (int i = 0; i < packets; ++i) {
    const Nanos base = period * (2 * i);
    sys.send_uplink_at(base + Nanos{static_cast<std::int64_t>(
                                  rng.uniform() * static_cast<double>(period.count()))});
    sys.send_downlink_at(base + period +
                         Nanos{static_cast<std::int64_t>(
                             rng.uniform() * static_cast<double>(period.count()))});
  }
  sys.run_until(period * (2 * packets + 20));
  return {sys.latency_samples_us(Direction::Downlink), sys.latency_samples_us(Direction::Uplink)};
}

TEST(RunnerGoldenTest, Fig6StyleRunIdenticalAcrossThreadCounts) {
  constexpr int kTrials = 4;
  constexpr int kPacketsPerTrial = 12;
  constexpr std::uint64_t kRoot = 42;

  // Serial reference: the pre-harness loop, one replication after another.
  Fig6Mini serial;
  for (int i = 0; i < kTrials; ++i) {
    Fig6Mini part =
        fig6_mini_replication(kPacketsPerTrial, replication_seed(kRoot, static_cast<std::uint64_t>(i)));
    serial.merge(part);
  }
  ASSERT_GT(serial.dl.count(), 0u);
  ASSERT_GT(serial.ul.count(), 0u);

  for (int threads : {1, 2, 8}) {
    Fig6Mini merged = merge_replications(run_replications(
        kTrials, kRoot,
        [](int, std::uint64_t seed) { return fig6_mini_replication(kPacketsPerTrial, seed); },
        {threads}));
    ASSERT_EQ(merged.dl.samples(), serial.dl.samples()) << "threads=" << threads;
    ASSERT_EQ(merged.ul.samples(), serial.ul.samples()) << "threads=" << threads;
  }

  // Golden anchor: the merged statistics are a pure function of the root
  // seed. A change here means the determinism contract (seed derivation,
  // merge order, or the simulation itself) changed — bump deliberately.
  EXPECT_EQ(serial.dl.count() + serial.ul.count(),
            static_cast<std::size_t>(2 * kTrials * kPacketsPerTrial));
  const double checksum =
      std::accumulate(serial.dl.samples().begin(), serial.dl.samples().end(), 0.0) +
      std::accumulate(serial.ul.samples().begin(), serial.ul.samples().end(), 0.0);
  EXPECT_TRUE(std::isfinite(checksum));
  EXPECT_GT(checksum, 0.0);
}

// ---------------------------------------------------------------------------
// Parallel design-space exploration matches the serial order

TEST(RunnerTest, DesignSpaceIdenticalAcrossThreadCounts) {
  DesignSpaceOptions serial_opt;
  serial_opt.threads = 1;
  const auto reference = explore_design_space(serial_opt);
  ASSERT_FALSE(reference.empty());

  for (int threads : {2, 8}) {
    DesignSpaceOptions opt;
    opt.threads = threads;
    const auto got = explore_design_space(opt);
    ASSERT_EQ(got.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(got[i].config_name, reference[i].config_name) << i;
      EXPECT_EQ(got[i].mu, reference[i].mu) << i;
      EXPECT_EQ(got[i].ul_mode, reference[i].ul_mode) << i;
      EXPECT_EQ(got[i].worst_ul, reference[i].worst_ul) << i;
      EXPECT_EQ(got[i].worst_dl, reference[i].worst_dl) << i;
      EXPECT_EQ(got[i].meets_deadline, reference[i].meets_deadline) << i;
    }
  }
}

}  // namespace
}  // namespace u5g
