// Sharded multi-cell engine: the determinism contract.
//
// The engine promises (a) merged results bitwise-identical across worker
// thread counts — the conservative lookahead windows, per-cell SplitMix64
// seed streams and fixed-order merges make a shard's evolution independent
// of which worker runs it — and (b) single-cell parity: a 1-cell sharded
// run IS a plain E2eSystem run, bit for bit, because cell 0 keeps the root
// seed and windowed run_until calls cannot change a discrete-event outcome.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "sim/sharded.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

constexpr Nanos kPeriod{2'000'000};

StackConfig eight_cell_scenario(std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_free(seed);
  cfg.num_cells = 8;
  cfg.num_ues = 2;
  cfg.intercell_load_coupling = 0.05;  // finite lookahead: barrier every slot
  cfg.trace.enabled = true;
  cfg.trace.metrics = true;
  return cfg;
}

Nanos offset_of(int cell, int ue, int p) {
  const auto h = replication_seed(static_cast<std::uint64_t>(cell * 131 + ue),
                                  static_cast<std::uint64_t>(p));
  return Nanos{static_cast<std::int64_t>(h % static_cast<std::uint64_t>(kPeriod.count()))};
}

/// Traffic on every `stride`-th cell; the others stay idle, so with a
/// stride > 1 filter_idle dispatches fewer cells than there are workers.
void inject_traffic(ShardedEngine& eng, int num_ues, int packets, int stride = 1) {
  for (int c = 0; c < eng.num_cells(); c += stride) {
    for (int u = 0; u < num_ues; ++u) {
      for (int p = 0; p < packets; ++p) {
        const Nanos base = kPeriod * (2 * p);
        eng.send_uplink_at(base + offset_of(c, u, p), c, u);
        eng.send_downlink_at(base + kPeriod + offset_of(c, u, p + 1000), c, u);
      }
    }
  }
}

}  // namespace

TEST(ShardedEngineTest, MergedResultsIdenticalAcrossThreadCounts) {
  constexpr int kPackets = 5;
  // stride 1 loads every cell; stride 4 loads cells 0 and 4 only, so most
  // windows dispatch two cells to up to eight workers and leave slices empty.
  for (const int stride : {1, 4}) {
    std::string baseline_metrics;
    std::vector<double> baseline_samples;
    std::uint64_t baseline_events = 0;

    for (int threads : {1, 2, 4, 8}) {
      StackConfig cfg = eight_cell_scenario(/*seed=*/42);
      ShardedEngine eng(cfg, ShardedOptions{threads});
      ASSERT_EQ(threads, eng.threads());
      inject_traffic(eng, cfg.num_ues, kPackets, stride);
      if (stride > 1) ASSERT_EQ(Nanos::max(), eng.cell(1).next_activity());
      eng.run_until(kPeriod * (2 * kPackets + 10));

      ASSERT_GT(eng.packets_delivered(), 0u);
      const std::string metrics = eng.merged_metrics().to_json();
      SampleSet ul = eng.latency_samples_us(Direction::Uplink);
      SampleSet dl = eng.latency_samples_us(Direction::Downlink);
      SampleSet merged = ul;
      merged.merge(dl);
      if (threads == 1) {
        baseline_metrics = metrics;
        baseline_samples = merged.samples();
        baseline_events = eng.events_fired();
        continue;
      }
      // Bitwise: identical JSON (counters + histogram buckets), identical
      // latency samples in identical merge order, identical event counts.
      EXPECT_EQ(baseline_metrics, metrics) << "stride=" << stride << " threads=" << threads;
      EXPECT_EQ(baseline_samples, merged.samples())
          << "stride=" << stride << " threads=" << threads;
      EXPECT_EQ(baseline_events, eng.events_fired())
          << "stride=" << stride << " threads=" << threads;
    }
  }
}

TEST(ShardedEngineTest, MultiWorkerEngineShutsDownWithoutRunning) {
  // Helpers park on the start barrier from construction on; destruction
  // must release and join them even though no window ever ran.
  for (const int threads : {2, 4, 8}) {
    ShardedEngine eng(eight_cell_scenario(/*seed=*/1), ShardedOptions{threads});
    EXPECT_EQ(threads, eng.threads());
  }
}

TEST(ShardedEngineTest, CellExceptionPropagatesInCellOrder) {
  // All four cells fire at kPeriod, so that window dispatches every cell;
  // cells 1 and 3 throw. Cell 1 sits on the engine thread's slice at 2
  // workers and on a helper's at 4, cell 3 on a helper's at both.
  // run_until() must rethrow cell 1's exception for every worker count, and
  // the engine must still shut down cleanly afterwards.
  for (const int threads : {1, 2, 4}) {
    StackConfig cfg = eight_cell_scenario(/*seed=*/2);
    cfg.num_cells = 4;
    ShardedEngine eng(cfg, ShardedOptions{threads});
    for (int c = 0; c < eng.num_cells(); ++c) {
      eng.cell(c).system().simulator().schedule_at(kPeriod, [c] {
        if (c % 2 == 1) throw std::runtime_error{"cell " + std::to_string(c)};
      });
    }
    try {
      eng.run_until(kPeriod * 10);
      ADD_FAILURE() << "threads=" << threads << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ("cell 1", e.what()) << "threads=" << threads;
    }
  }
}

TEST(ShardedEngineTest, SingleCellReproducesE2eSystemExactly) {
  // Same config, same injection sequence: the sharded path must not perturb
  // a single cell's evolution in any way.
  StackConfig cfg = StackConfig::testbed_grant_based(/*seed=*/5);
  cfg.num_ues = 2;

  E2eSystem plain(cfg);
  ShardedEngine sharded(cfg, ShardedOptions{1});
  ASSERT_EQ(1, sharded.num_cells());

  for (int u = 0; u < cfg.num_ues; ++u) {
    for (int p = 0; p < 6; ++p) {
      const Nanos base = kPeriod * (2 * p);
      const Nanos ul = base + offset_of(0, u, p);
      const Nanos dl = base + kPeriod + offset_of(0, u, p + 500);
      plain.send_uplink_at(ul, u);
      plain.send_downlink_at(dl, u);
      sharded.send_uplink_at(ul, 0, u);
      sharded.send_downlink_at(dl, 0, u);
    }
  }
  const Nanos horizon = kPeriod * 24;
  plain.run_until(horizon);
  sharded.run_until(horizon);

  const auto& a = plain.records();
  const auto& b = sharded.cell(0).system().records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(plain.packets_delivered(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << "record " << i;
    EXPECT_EQ(a[i].created.count(), b[i].created.count()) << "record " << i;
    EXPECT_EQ(a[i].delivered.count(), b[i].delivered.count()) << "record " << i;
    EXPECT_EQ(a[i].harq_transmissions, b[i].harq_transmissions) << "record " << i;
  }
  EXPECT_EQ(plain.simulator().events_fired(), sharded.events_fired());
  EXPECT_EQ(plain.packets_delivered(), sharded.packets_delivered());
}

TEST(ShardedEngineTest, ZeroCouplingMatchesIndependentSystems) {
  // With intercell_load_coupling == 0 the shards are provably independent:
  // an N-cell engine must equal N standalone E2eSystems seeded from the
  // same SplitMix64 stream.
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/11);
  cfg.num_cells = 3;
  cfg.intercell_load_coupling = 0.0;

  ShardedEngine eng(cfg, ShardedOptions{2});
  for (int c = 0; c < 3; ++c) eng.send_uplink_at(offset_of(c, 0, c), c, 0);
  eng.run_until(kPeriod * 10);

  for (int c = 0; c < 3; ++c) {
    StackConfig solo = cfg;
    solo.num_cells = 1;
    solo.seed = cell_seed(cfg.seed, c);
    E2eSystem sys(solo);
    sys.send_uplink_at(offset_of(c, 0, c), 0);
    sys.run_until(kPeriod * 10);
    const auto& a = sys.records();
    const auto& b = eng.cell(c).system().records();
    ASSERT_EQ(a.size(), b.size()) << "cell " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ok, b[i].ok) << "cell " << c;
      EXPECT_EQ(a[i].delivered.count(), b[i].delivered.count()) << "cell " << c;
    }
  }
}

TEST(ShardedEngineTest, CellSeedsFollowTheReplicationStream) {
  EXPECT_EQ(77u, cell_seed(77, 0));  // cell 0 keeps the root: E2eSystem parity
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(replication_seed(77, static_cast<std::uint64_t>(i)), cell_seed(77, i));
  }
}

TEST(ShardedEngineTest, RejectsInjectionBehindTheFrontier) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/3);
  cfg.num_cells = 2;
  cfg.intercell_load_coupling = 0.01;
  ShardedEngine eng(cfg, ShardedOptions{1});
  eng.run_until(Nanos{5'000'000});
  EXPECT_THROW(eng.send_uplink_at(Nanos{1'000'000}, 0, 0), std::invalid_argument);
  EXPECT_THROW(eng.send_uplink_at(Nanos{10'000'000}, 7, 0), std::out_of_range);
  eng.send_uplink_at(Nanos{10'000'000}, 1, 0);  // at the frontier or later: fine
}

TEST(ShardedEngineTest, RejectsZeroCells) {
  // The engine validates its base config, so a cell count no run can
  // honour fails like any other invalid StackConfig field.
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/3);
  cfg.num_cells = 0;
  EXPECT_THROW(ShardedEngine(cfg, ShardedOptions{2}), std::invalid_argument);
}

TEST(ShardedEngineTest, TraceLanesExportOneProcessPerCell) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/9);
  cfg.num_cells = 2;
  cfg.trace.enabled = true;
  cfg.trace.spans = true;
  ShardedEngine eng(cfg, ShardedOptions{1});
  for (int c = 0; c < 2; ++c) eng.send_uplink_at(Nanos{c * 100'000}, c, 0);
  eng.run_until(kPeriod * 10);

  const std::vector<TraceLane> lanes = eng.trace_lanes();
  ASSERT_EQ(2u, lanes.size());
  EXPECT_EQ("cell 0", lanes[0].name);
  EXPECT_EQ("cell 1", lanes[1].name);
  EXPECT_FALSE(lanes[0].spans.empty());
  EXPECT_FALSE(lanes[1].spans.empty());

  const std::string doc = chrome_trace_json(lanes);
  EXPECT_NE(std::string::npos, doc.find("\"name\":\"cell 0\""));
  EXPECT_NE(std::string::npos, doc.find("\"name\":\"cell 1\""));
  EXPECT_NE(std::string::npos, doc.find("\"pid\":1"));
}
