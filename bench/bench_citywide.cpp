// City-scale population throughput: cells × background-UEs sweep on the
// sharded engine with lite-UE populations (mac/ue_population.hpp).
//
// Each row runs `cells` complete shards — one tracked full-stack UE per cell
// plus `bg_ues` flat-row background UEs driven by the aggregate per-slot
// Poisson process — for a fixed simulated horizon, with inter-cell load
// coupling so the adaptive-lookahead barrier and load exchange are
// exercised at scale. Headlines per row:
//
//   events/s     simulator events + population operations (arrivals and
//                grant services — the work a per-packet event model would
//                have paid one kernel event each for)
//   UE-pkt/s     tracked + background packets delivered per wall second
//   UEs/core     UEs one core sustains at real time: total UEs × (sim
//                time / wall time) / threads
//   bytes/UE     flat-row storage per background UE
//
// The determinism sweep executes a small coupled scenario at 1, 2, 4 and 8
// workers (helper threads live from 2 on) and requires byte-identical
// merged metrics. `--strict` additionally gates the sweep reaching >= 1M
// background UEs across >= 1000 cells — the ROADMAP city-scale floor.
//
// CLI: [--packets N] (tracked packets per cell) [--seed S] [--json FILE]
//      [--strict] [--smoke] (tiny sweep for sanitizer CI; --strict then
//      gates only the determinism sweep, not the city-scale floor)

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

constexpr Nanos kHorizon{100'000'000};  // 100 ms simulated per row

StackConfig city_config(std::uint64_t seed, int cells, int bg_ues) {
  StackConfig cfg = StackConfig::testbed_grant_free(seed);
  cfg.num_cells = cells;
  cfg.num_ues = 1;  // one tracked full-stack UE per cell
  cfg.intercell_load_coupling = 0.005;
  cfg.population.background_ues = bg_ues;
  cfg.population.mean_interarrival = Nanos{10'000'000};  // 20-slot spacing
  cfg.population.grants_per_slot = 64;                   // ~78% offered load
  cfg.population.loss = 0.05;
  cfg.trace.metrics = true;
  return cfg;
}

struct Row {
  int cells = 0;
  int bg_ues = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  double ue_pkt_per_s = 0.0;
  double ues_per_core = 0.0;
  double bytes_per_ue = 0.0;
  std::uint64_t bg_delivered = 0;
  std::uint64_t bg_offered = 0;
};

Row run_row(std::uint64_t seed, int cells, int bg_ues, int packets, int threads) {
  const StackConfig cfg = city_config(seed, cells, bg_ues);
  ShardedEngine eng(cfg, ShardedOptions{threads});
  for (int c = 0; c < cells; ++c) {
    for (int p = 0; p < packets; ++p) {
      const Nanos at{(splitmix64(seed ^ (static_cast<std::uint64_t>(c) * 1000003ULL +
                                         static_cast<std::uint64_t>(p))) %
                      static_cast<std::uint64_t>(kHorizon.count() / 2))};
      eng.send_uplink_at(at, c, 0);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(kHorizon);
  const auto t1 = std::chrono::steady_clock::now();

  Row r;
  r.cells = cells;
  r.bg_ues = bg_ues;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const auto pop = eng.population_totals();
  const double pop_ops = static_cast<double>(pop.offered + pop.grants_used);
  r.events_per_s = (static_cast<double>(eng.events_fired()) + pop_ops) / r.wall_s;
  r.ue_pkt_per_s =
      static_cast<double>(eng.packets_delivered() + pop.delivered) / r.wall_s;
  const double total_ues = static_cast<double>(pop.ues) + static_cast<double>(cells);
  const double sim_s = static_cast<double>(kHorizon.count()) * 1e-9;
  r.ues_per_core = total_ues * (sim_s / r.wall_s) / static_cast<double>(threads);
  r.bytes_per_ue = pop.ues != 0U
                       ? static_cast<double>(pop.storage_bytes) / static_cast<double>(pop.ues)
                       : 0.0;
  r.bg_delivered = pop.delivered;
  r.bg_offered = pop.offered;
  return r;
}

/// Small coupled scenario at 1/2/4/8 workers: merged metrics must be
/// byte-identical (cells split across 2, 4 and 8 worker slices).
bool determinism_sweep(std::uint64_t seed) {
  std::string baseline;
  for (const int threads : {1, 2, 4, 8}) {
    StackConfig cfg = city_config(seed, 8, 200);
    cfg.num_ues = 2;
    cfg.intercell_load_coupling = 0.02;
    ShardedEngine eng(cfg, ShardedOptions{threads});
    for (int c = 0; c < eng.num_cells(); ++c) {
      for (int p = 0; p < 4; ++p) eng.send_uplink_at(Nanos{2'000'000} * p, c, p % 2);
    }
    eng.run_until(Nanos{40'000'000});
    const std::string merged = eng.merged_metrics().to_json();
    if (baseline.empty()) {
      baseline = merged;
    } else if (merged != baseline) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.packets = 2;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);
  const int packets = opt.packets > 0 ? opt.packets : 2;
  const int threads = opt.threads > 0 ? opt.threads : 1;

  std::printf("== Citywide: cells x background-UEs sweep, %d tracked pkts/cell, %lld ms sim ==\n\n",
              packets, static_cast<long long>(kHorizon.count() / 1'000'000));

  struct Shape {
    int cells, bg_ues;
  };
  const std::vector<Shape> sweep =
      opt.smoke ? std::vector<Shape>{{4, 200}, {16, 500}}
                : std::vector<Shape>{
                      {16, 1000}, {64, 1000}, {256, 1000}, {1000, 1000}, {1000, 2000}};

  TextTable out({"cells", "bg UEs", "total UEs", "wall [s]", "events/s", "UE-pkt/s",
                 "UEs/core", "bytes/UE"});
  std::vector<Row> rows;
  for (const Shape s : sweep) {
    const Row r = run_row(opt.seed, s.cells, s.bg_ues, packets, threads);
    rows.push_back(r);
    out.add_row({std::to_string(r.cells), std::to_string(r.bg_ues),
                 std::to_string(static_cast<long long>(r.cells) * r.bg_ues), fmt2(r.wall_s),
                 fmt2(r.events_per_s), fmt2(r.ue_pkt_per_s), fmt2(r.ues_per_core),
                 fmt2(r.bytes_per_ue)});
  }
  std::printf("%s\n", out.render().c_str());

  const bool identical = determinism_sweep(opt.seed);
  std::printf("merged metrics across 1/2/4/8 workers: %s\n",
              identical ? "bitwise-identical" : "MISMATCH");

  long long max_bg = 0;
  int max_cells = 0;
  for (const Row& r : rows) {
    const long long total = static_cast<long long>(r.cells) * r.bg_ues;
    if (total > max_bg) {
      max_bg = total;
      max_cells = r.cells;
    }
  }
  const bool at_scale = max_bg >= 1'000'000 && max_cells >= 1000;
  if (!opt.smoke) {
    std::printf("city-scale floor (>=1M background UEs across >=1k cells): %s\n",
                at_scale ? "reached" : "NOT reached");
  }

  if (opt.json) {
    std::FILE* f = std::fopen(opt.json->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_citywide: cannot write %s\n", opt.json->c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"citywide\",\"tracked_pkts_per_cell\":%d,\"threads\":%d,\n",
                 packets, threads);
    std::fprintf(f, " \"sim_ms\":%lld,\"metrics_identical\":%s,\"at_scale\":%s,\"results\":[\n",
                 static_cast<long long>(kHorizon.count() / 1'000'000),
                 identical ? "true" : "false", at_scale ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"cells\":%d,\"bg_ues_per_cell\":%d,\"total_bg_ues\":%lld,"
                   "\"wall_s\":%.6f,\"events_per_s\":%.1f,\"ue_pkt_per_s\":%.1f,"
                   "\"ues_per_core\":%.1f,\"bytes_per_ue\":%.2f,"
                   "\"bg_delivered\":%llu,\"bg_offered\":%llu}%s\n",
                   r.cells, r.bg_ues, static_cast<long long>(r.cells) * r.bg_ues, r.wall_s,
                   r.events_per_s, r.ue_pkt_per_s, r.ues_per_core, r.bytes_per_ue,
                   static_cast<unsigned long long>(r.bg_delivered),
                   static_cast<unsigned long long>(r.bg_offered),
                   i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  return (opt.strict && !(identical && (at_scale || opt.smoke))) ? 1 : 0;
}
