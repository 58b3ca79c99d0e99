// City-scale population layer: seed-stream hygiene, aggregate-vs-explicit
// traffic equivalence, loss accounting, and the engine-level determinism and
// parity contracts with background populations attached.
//
// The population's RNG stream is forked from cell_seed ^ salt, so attaching
// a population must not move a single draw of the tracked E2eSystem — the
// parity tests below pin that, and the cross-thread tests pin that the
// static cell partition (which splits population-carrying cells across
// workers) stays bitwise deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cell.hpp"
#include "mac/ue_population.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

constexpr Nanos kSlot{500'000};  // µ1, matching the testbed presets

PopulationConfig lite_config(int ues) {
  PopulationConfig cfg;
  cfg.background_ues = ues;
  cfg.mean_interarrival = Nanos{5'000'000};  // 10 slots mean spacing
  cfg.grants_per_slot = 64;
  return cfg;
}

void run_slots(UePopulation& pop, int slots) {
  for (int s = 0; s < slots; ++s) pop.tick(static_cast<std::uint64_t>(s));
}

}  // namespace

// -- Seed-stream hygiene -----------------------------------------------------

TEST(SeedStreamTest, NoCollisionsAcrossTenThousandCells) {
  constexpr int kCells = 10'000;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(kCells);
  for (int i = 0; i < kCells; ++i) seeds.push_back(cell_seed(1, i));
  std::vector<std::uint64_t> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "cell_seed produced a duplicate within 10k cells";
}

TEST(SeedStreamTest, LowBitsAreBalancedAndUncorrelated) {
  constexpr int kCells = 10'000;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(kCells);
  for (int i = 0; i < kCells; ++i) seeds.push_back(cell_seed(7, i));

  // Each of the low 16 bits should be set in roughly half the seeds — a
  // counter-like stream (root + i) would fail bit 0 catastrophically.
  for (int bit = 0; bit < 16; ++bit) {
    int ones = 0;
    for (const std::uint64_t s : seeds) ones += static_cast<int>((s >> bit) & 1U);
    EXPECT_GT(ones, kCells * 45 / 100) << "bit " << bit << " mostly clear";
    EXPECT_LT(ones, kCells * 55 / 100) << "bit " << bit << " mostly set";
  }

  // Adjacent seeds must not advance by a constant pattern in the low bits:
  // the XOR of consecutive seeds (low 16 bits) should take many values.
  std::vector<std::uint64_t> deltas;
  deltas.reserve(kCells - 1);
  for (int i = 1; i < kCells; ++i) deltas.push_back((seeds[i] ^ seeds[i - 1]) & 0xffffU);
  std::sort(deltas.begin(), deltas.end());
  const auto distinct =
      static_cast<std::size_t>(std::unique(deltas.begin(), deltas.end()) - deltas.begin());
  EXPECT_GT(distinct, static_cast<std::size_t>(1000))
      << "adjacent cell seeds differ by a near-constant low-bit pattern";
}

// -- Aggregate vs explicit traffic -------------------------------------------

TEST(UePopulationTest, PeriodicAggregateExactlyMatchesExplicit) {
  PopulationConfig agg = lite_config(333);
  agg.periodic = true;
  agg.aggregate = true;
  PopulationConfig exp = agg;
  exp.aggregate = false;

  UePopulation a(agg, kSlot, 42);
  UePopulation b(exp, kSlot, 42);
  run_slots(a, 500);
  run_slots(b, 500);

  // Phase arithmetic makes the batched path bit-for-bit the per-UE walk.
  EXPECT_EQ(a.counters().offered, b.counters().offered);
  EXPECT_EQ(a.counters().delivered, b.counters().delivered);
  EXPECT_EQ(a.counters().grants_used, b.counters().grants_used);
  EXPECT_EQ(a.queued_packets(), b.queued_packets());
}

TEST(UePopulationTest, PoissonAggregateStatisticallyMatchesExplicit) {
  constexpr int kUes = 256;
  constexpr int kSlots = 2000;
  PopulationConfig agg = lite_config(kUes);
  PopulationConfig exp = agg;
  exp.aggregate = false;

  UePopulation a(agg, kSlot, 99);
  UePopulation b(exp, kSlot, 1234);
  run_slots(a, kSlots);
  run_slots(b, kSlots);

  // Expected offered load: 256 UEs × 2000 slots × 0.1 arrivals/slot = 51200,
  // σ ≈ 226 — a 5% tolerance is > 10σ for each run. (The explicit path is
  // per-slot Bernoulli thinning, i.e. Binomial(n, p) per slot; at p = 0.1
  // its mean matches the Poisson batch and its variance is within 10%.)
  const double expected = kUes * kSlots * 0.1;
  EXPECT_NEAR(static_cast<double>(a.counters().offered), expected, expected * 0.05);
  EXPECT_NEAR(static_cast<double>(b.counters().offered), expected, expected * 0.05);
  EXPECT_NEAR(static_cast<double>(a.counters().delivered),
              static_cast<double>(b.counters().delivered),
              static_cast<double>(a.counters().delivered) * 0.05);
}

TEST(UePopulationTest, FixedSeedRunsAreBitwiseReproducible) {
  const PopulationConfig cfg = [] {
    PopulationConfig c = lite_config(512);
    c.loss = 0.1;
    c.harq_max_tx = 3;
    c.grants_per_slot = 32;
    return c;
  }();
  UePopulation a(cfg, kSlot, 7);
  UePopulation b(cfg, kSlot, 7);
  run_slots(a, 1000);
  run_slots(b, 1000);

  MetricsRegistry ra;
  MetricsRegistry rb;
  a.export_metrics(ra);
  b.export_metrics(rb);
  EXPECT_EQ(ra.to_json(), rb.to_json());
  EXPECT_NE(a.counters().delivered, 0U);
}

// Values recorded from the draw-push-draw arrival loop that preceded the
// chunked draw-then-prefetch loop. The chunked loop must reproduce them
// exactly: same RNG draw order, same pushes. Do not regenerate them.
namespace {

struct PinnedRun {
  std::uint64_t offered, delivered, harq_drops, queue_drops, grants_used, queued;
  const char* json;
};

void expect_pinned(const PopulationConfig& cfg, std::uint64_t seed, const PinnedRun& want) {
  UePopulation pop(cfg, kSlot, seed);
  run_slots(pop, 500);
  const auto& c = pop.counters();
  EXPECT_EQ(c.offered, want.offered);
  EXPECT_EQ(c.delivered, want.delivered);
  EXPECT_EQ(c.harq_drops, want.harq_drops);
  EXPECT_EQ(c.queue_drops, want.queue_drops);
  EXPECT_EQ(c.grants_used, want.grants_used);
  EXPECT_EQ(pop.queued_packets(), want.queued);
  MetricsRegistry reg;
  pop.export_metrics(reg);
  EXPECT_EQ(reg.to_json(), want.json);
}

}  // namespace

TEST(UePopulationTest, AggregatePoissonTickIsPinned) {
  // city_1m's population: ~50 arrivals per slot, the exact Poisson branch;
  // some slots draw more than one chunk of arrivals.
  PopulationConfig city;
  city.background_ues = 1000;
  city.mean_interarrival = Nanos{10'000'000};
  city.grants_per_slot = 64;
  city.loss = 0.05;
  expect_pinned(city, 5,
                {25203, 25198, 0, 0, 26570, 5, R"({
  "counters": {
    "population.delivered": 25198,
    "population.grants_used": 26570,
    "population.harq_drops": 0,
    "population.offered": 25203,
    "population.queue_drops": 0,
    "population.queued": 5
  },
  "histograms": {
    "population.latency_ns": {"count": 25198, "min_ns": 500000, "max_ns": 2000000, "mean_ns": 538891.976, "p50_ns": 507903, "p90_ns": 507903, "p99_ns": 1015807, "p999_ns": 1507327}
  }
}
)"});

  // ~1000 arrivals per slot: the normal-approximation count, many chunks per
  // slot, full rings (queue drops) and HARQ drops.
  PopulationConfig heavy;
  heavy.background_ues = 4000;
  heavy.mean_interarrival = Nanos{2'000'000};
  heavy.grants_per_slot = 256;
  heavy.loss = 0.1;
  heavy.harq_max_tx = 3;
  heavy.queue_capacity = 6;
  expect_pinned(heavy, 13,
                {500279, 115174, 117, 362017, 128000, 22971, R"({
  "counters": {
    "population.delivered": 115174,
    "population.grants_used": 128000,
    "population.harq_drops": 117,
    "population.offered": 500279,
    "population.queue_drops": 362017,
    "population.queued": 22971
  },
  "histograms": {
    "population.latency_ns": {"count": 115174, "min_ns": 500000, "max_ns": 53500000, "mean_ns": 43478619.306, "p50_ns": 50331647, "p90_ns": 52428799, "p99_ns": 53500000, "p999_ns": 53500000}
  }
}
)"});
}

// -- Config validation -------------------------------------------------------

TEST(UePopulationTest, RejectsConfigsItsRowsCannotHold) {
  const auto build = [](auto&& edit) {
    PopulationConfig cfg = lite_config(8);
    edit(cfg);
    UePopulation pop(cfg, kSlot, 1);
  };
  // q_len_ and attempt_ are byte-wide: 256 would wrap.
  EXPECT_THROW(build([](PopulationConfig& c) { c.queue_capacity = 0; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.queue_capacity = 256; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.harq_max_tx = 0; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.harq_max_tx = 300; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.loss = -0.1; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.loss = 1.5; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.loss = std::nan(""); }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.grants_per_slot = -1; }), std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.mean_interarrival = Nanos{0}; }),
               std::invalid_argument);
  EXPECT_THROW(build([](PopulationConfig& c) { c.mean_interarrival = Nanos{-5}; }),
               std::invalid_argument);

  // The bounds themselves are accepted.
  EXPECT_NO_THROW(build([](PopulationConfig& c) {
    c.queue_capacity = 255;
    c.harq_max_tx = 255;
    c.loss = 1.0;
    c.grants_per_slot = 0;
    c.mean_interarrival = Nanos{1};
  }));
  EXPECT_NO_THROW(build([](PopulationConfig& c) {
    c.queue_capacity = 1;
    c.harq_max_tx = 1;
    c.loss = 0.0;
  }));

  // At the largest ring a full queue bounces arrivals instead of wrapping.
  PopulationConfig deep = lite_config(4);
  deep.queue_capacity = 255;
  deep.mean_interarrival = Nanos{50'000};  // 10 arrivals per UE-slot
  deep.grants_per_slot = 0;
  UePopulation pop(deep, kSlot, 3);
  run_slots(pop, 100);
  EXPECT_EQ(pop.queued_packets(), 4U * 255U);
  EXPECT_EQ(pop.counters().offered, pop.counters().queue_drops + pop.queued_packets());

  // A disabled population is never built from its knobs, so it accepts any.
  PopulationConfig off;
  off.background_ues = 0;
  off.queue_capacity = 1000;
  off.harq_max_tx = -3;
  off.loss = 7.0;
  off.grants_per_slot = -1;
  off.mean_interarrival = Nanos{0};
  EXPECT_NO_THROW(UePopulation(off, kSlot, 1));
}

// -- Loss accounting ---------------------------------------------------------

TEST(UePopulationTest, OfferedEqualsDeliveredPlusDropsPlusQueued) {
  PopulationConfig cfg = lite_config(400);
  cfg.mean_interarrival = Nanos{2'000'000};  // 4-slot spacing: heavy load
  cfg.loss = 0.3;
  cfg.harq_max_tx = 2;
  cfg.grants_per_slot = 16;  // starved scheduler: rings overflow
  cfg.queue_capacity = 4;
  UePopulation pop(cfg, kSlot, 11);
  for (int s = 0; s < 800; ++s) {
    pop.tick(static_cast<std::uint64_t>(s));
    const auto& c = pop.counters();
    ASSERT_EQ(c.offered, c.delivered + c.harq_drops + c.queue_drops + pop.queued_packets())
        << "accounting identity broken after slot " << s;
  }
  EXPECT_NE(pop.counters().harq_drops, 0U);
  EXPECT_NE(pop.counters().queue_drops, 0U);
  EXPECT_NE(pop.counters().delivered, 0U);
}

// -- Engine-level contracts --------------------------------------------------

namespace {

StackConfig populated_scenario(std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_free(seed);
  cfg.num_cells = 8;
  cfg.num_ues = 2;
  cfg.intercell_load_coupling = 0.02;
  cfg.population = lite_config(500);
  cfg.population.loss = 0.05;
  cfg.trace.metrics = true;
  return cfg;
}

void inject_tracked(ShardedEngine& eng) {
  for (int c = 0; c < eng.num_cells(); ++c) {
    for (int p = 0; p < 4; ++p) {
      eng.send_uplink_at(Nanos{2'000'000} * p, c, p % 2);
    }
  }
}

}  // namespace

TEST(PopulatedEngineTest, MergedResultsIdenticalAcrossWorkerCounts) {
  std::string baseline;
  std::uint64_t baseline_delivered = 0;
  for (const int threads : {1, 2, 4, 8}) {
    ShardedEngine eng(populated_scenario(5), ShardedOptions{threads});
    inject_tracked(eng);
    eng.run_until(Nanos{40'000'000});
    const std::string merged = eng.merged_metrics().to_json();
    const auto totals = eng.population_totals();
    EXPECT_EQ(totals.ues, 8U * 500U);
    EXPECT_NE(totals.delivered, 0U);
    EXPECT_EQ(totals.offered,
              totals.delivered + totals.harq_drops + totals.queue_drops + totals.queued);
    if (baseline.empty()) {
      baseline = merged;
      baseline_delivered = totals.delivered;
    } else {
      // At 2, 4 and 8 workers every worker's slice holds population cells;
      // results must not know which thread ran which cell.
      EXPECT_EQ(merged, baseline) << "threads=" << threads;
      EXPECT_EQ(totals.delivered, baseline_delivered);
    }
  }
}

TEST(PopulatedEngineTest, ZeroLoadFactorPopulationLeavesTrackedStreamUntouched) {
  // load_factor = 0 detaches the only feedback path from background to
  // tracked UEs; the tracked packets must then be bit-identical to a run
  // with no population at all (the RNG fork means no draw is shared).
  StackConfig with_pop = StackConfig::testbed_grant_free(21);
  with_pop.population = lite_config(1000);
  with_pop.population.load_factor = 0.0;
  StackConfig without = StackConfig::testbed_grant_free(21);

  ShardedEngine a(with_pop);
  ShardedEngine b(without);
  for (int p = 0; p < 6; ++p) {
    a.send_uplink_at(Nanos{2'000'000} * p, 0, 0);
    b.send_uplink_at(Nanos{2'000'000} * p, 0, 0);
  }
  a.run_until(Nanos{40'000'000});
  b.run_until(Nanos{40'000'000});

  const SampleSet sa = a.latency_samples_us(Direction::Uplink);
  const SampleSet sb = b.latency_samples_us(Direction::Uplink);
  ASSERT_EQ(sa.samples().size(), sb.samples().size());
  for (std::size_t i = 0; i < sa.samples().size(); ++i) {
    EXPECT_EQ(sa.samples()[i], sb.samples()[i]) << "tracked packet " << i;
  }
  EXPECT_NE(a.population_totals().delivered, 0U);
}

TEST(PopulatedEngineTest, BackgroundBacklogSlowsTrackedPackets) {
  // With a positive load factor a persistently backlogged population scales
  // the gNB's processing draws up — tracked latency must rise.
  StackConfig loaded = StackConfig::testbed_grant_free(33);
  loaded.population = lite_config(2000);
  loaded.population.mean_interarrival = Nanos{1'000'000};  // 2-slot spacing
  loaded.population.grants_per_slot = 8;                   // starved: backlog grows
  loaded.population.load_factor = 0.05;
  StackConfig idle = loaded;
  idle.population.background_ues = 0;

  ShardedEngine a(loaded);
  ShardedEngine b(idle);
  for (int p = 0; p < 6; ++p) {
    a.send_uplink_at(Nanos{4'000'000} * (p + 1), 0, 0);
    b.send_uplink_at(Nanos{4'000'000} * (p + 1), 0, 0);
  }
  a.run_until(Nanos{60'000'000});
  b.run_until(Nanos{60'000'000});
  EXPECT_GT(a.latency_samples_us(Direction::Uplink).mean(),
            b.latency_samples_us(Direction::Uplink).mean());
}
