// Feasibility-query service under load: the Table 1 verdict as an online
// query engine. The workload is a repeated sweep over a 120-query universe
// (5 Table 1 candidate patterns x 3 access modes x 4 deadlines x 2 analytic
// model variants) — the shape a network-planning tool produces when it
// re-asks the same feasibility questions across scenarios.
//
// Reported: per-query latency (p50/p99) and sustained queries/s for the
// synchronous path, queries/s for the batch path, and the analytic cache
// hit rate. `--strict` gates the service's correctness contract:
//   * every answer bit-identical to offline `analyze_worst_case`;
//   * warm (cached) answers bit-identical to the cold misses;
//   * analytic cache hit rate > 90% on the repeated-sweep workload;
//   * sim-tail answers bitwise identical at 1/2/8 sim threads, and a warm
//     tail hit identical to its cold miss.
//
// CLI: [--queries N] [--batch N] [--json FILE] [--strict] [--smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/feasibility.hpp"
#include "serve/feasibility_service.hpp"

using namespace u5g;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_serve: STRICT FAILURE: %s\n", what);
    ++g_failures;
  }
}

/// Exact (bitwise for the derived doubles) equality of two analytic results.
bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

/// The repeated-sweep universe: every Table 1 pattern, every access mode,
/// four deadlines, two analytic model variants (idealised and a software
/// stack with per-end processing + radio costs).
QueryBatch build_universe() {
  static std::vector<std::shared_ptr<const DuplexConfig>> cfgs = [] {
    std::vector<std::shared_ptr<const DuplexConfig>> v;
    for (auto& c : table1_configs()) v.emplace_back(std::move(c));
    return v;
  }();
  LatencyModelParams software;
  software.sender_processing = Nanos{100'000};
  software.receiver_processing = Nanos{150'000};
  software.radio_tx = Nanos{50'000};
  software.radio_rx = Nanos{50'000};
  QueryBatch universe;
  for (const auto& cfg : cfgs) {
    for (AccessMode m :
         {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
      for (Nanos deadline : {Nanos{250'000}, Nanos{500'000}, Nanos{1'000'000}, Nanos{2'000'000}}) {
        for (const LatencyModelParams& p : {LatencyModelParams{}, software}) {
          universe.push_back(FeasibilityQuery::analytic(cfg, m, deadline, p));
        }
      }
    }
  }
  return universe;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_bench_options(argc, argv);
  const QueryBatch universe = build_universe();
  const int total = opt.queries > 0 ? opt.queries : (opt.smoke ? 20'000 : 200'000);
  std::printf("== feasibility-query service: %d queries over a %zu-query universe ==\n\n", total,
              universe.size());

  // -- Gate: service answers bit-identical to the offline analytic path ------
  FeasibilityService service;
  for (const FeasibilityQuery& q : universe) {
    const WorstCaseResult direct = analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
    const FeasibilityVerdict v = service.query(q);
    check(same_worst_case(v.worst_case, direct), "service != offline analyze_worst_case");
    const bool direct_meets = direct.feasible && direct.worst <= q.deadline;
    check(v.meets_deadline == direct_meets, "service verdict != offline verdict");
  }
  std::printf("bit-identity vs offline analyze_worst_case over the universe: %s\n",
              g_failures == 0 ? "ok" : "FAILED");

  // -- Sync pass: per-query latency + sustained throughput -------------------
  FeasibilityService sync_service;
  std::vector<FeasibilityVerdict> cold(universe.size());
  SampleSet per_query_ns;
  const auto sync_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < total; ++i) {
    const std::size_t u = static_cast<std::size_t>(i) % universe.size();
    const auto q0 = std::chrono::steady_clock::now();
    FeasibilityVerdict v = sync_service.query(universe[u]);
    per_query_ns.add(std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - q0)
                         .count());
    if (static_cast<std::size_t>(i) < universe.size()) {
      cold[u] = v;  // first lap = the cold misses
    } else if (opt.strict && !same_worst_case(v.worst_case, cold[u].worst_case)) {
      check(false, "warm (cached) answer differs from its cold miss");
    }
  }
  const double sync_wall = seconds_since(sync_t0);
  const double qps = static_cast<double>(total) / sync_wall;
  const double p50_us = per_query_ns.quantile(0.50) / 1e3;
  const double p99_us = per_query_ns.quantile(0.99) / 1e3;
  const FeasibilityService::Stats sync_stats = sync_service.stats();
  std::printf("sync:  %.0f queries/s, per-query p50 %.2f us, p99 %.2f us\n", qps, p50_us, p99_us);
  std::printf("cache: hit rate %.2f%% (%llu hits / %llu misses)\n",
              100.0 * sync_stats.analytic_hit_rate(),
              static_cast<unsigned long long>(sync_stats.analytic_hits),
              static_cast<unsigned long long>(sync_stats.analytic_misses));
  if (opt.strict) check(sync_stats.analytic_hit_rate() > 0.90, "analytic hit rate <= 90%");

  // -- Batch pass ------------------------------------------------------------
  FeasibilityService batch_service;
  const int batch_size = opt.batch > 0 ? opt.batch : 4096;
  int issued = 0;
  const auto batch_t0 = std::chrono::steady_clock::now();
  while (issued < total) {
    QueryBatch b;
    b.reserve(static_cast<std::size_t>(batch_size));
    for (int i = 0; i < batch_size && issued < total; ++i, ++issued) {
      b.push_back(universe[static_cast<std::size_t>(issued) % universe.size()]);
    }
    const std::vector<FeasibilityVerdict> vs = batch_service.query_batch(b);
    if (opt.strict) {
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const std::size_t u = static_cast<std::size_t>(issued - static_cast<int>(vs.size()) +
                                                       static_cast<int>(i)) %
                              universe.size();
        check(same_worst_case(vs[i].worst_case, cold[u].worst_case), "batch answer != sync answer");
      }
    }
  }
  const double batch_wall = seconds_since(batch_t0);
  const double batch_qps = static_cast<double>(total) / batch_wall;
  std::printf("batch: %.0f queries/s at batch size %d\n", batch_qps, batch_size);

  // -- Sim-tail fallback: deterministic across service sim threads -----------
  const int reps = opt.smoke ? 2 : 4;
  const int tail_packets = opt.smoke ? 8 : 24;
  double tail_q_us[3] = {};
  bool tail_warm_hit = false;
  const int thread_counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    FeasibilityService::Options o;
    o.sim_threads = thread_counts[t];
    FeasibilityService tail_service(o);
    const FeasibilityQuery q = FeasibilityQuery::with_tail(
        StackConfig::testbed_grant_free(7), AccessMode::GrantFreeUl, Nanos{5'000'000}, reps,
        tail_packets, 0.99);
    const FeasibilityVerdict v = tail_service.query(q);
    check(v.tail.has_value() && !v.tail_cache_hit, "cold tail query should miss the cache");
    tail_q_us[t] = v.tail->quantile_latency_us;
    const FeasibilityVerdict warm = tail_service.query(q);
    tail_warm_hit = warm.tail_cache_hit;
    check(warm.tail_cache_hit, "warm tail query should hit the cache");
    check(std::memcmp(&warm.tail->quantile_latency_us, &v.tail->quantile_latency_us,
                      sizeof(double)) == 0,
          "warm tail answer != cold tail answer");
  }
  check(std::memcmp(&tail_q_us[0], &tail_q_us[1], sizeof(double)) == 0,
        "sim tail differs between 1 and 2 sim threads");
  check(std::memcmp(&tail_q_us[0], &tail_q_us[2], sizeof(double)) == 0,
        "sim tail differs between 1 and 8 sim threads");
  std::printf("tail:  p99 %.1f us, bitwise identical at 1/2/8 sim threads, warm hit %s\n\n",
              tail_q_us[0], tail_warm_hit ? "ok" : "MISSING");

  if (opt.json) {
    std::FILE* f = std::fopen(opt.json->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", opt.json->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
    std::fprintf(f, "  \"queries\": %d,\n  \"universe\": %zu,\n", total, universe.size());
    std::fprintf(f, "  \"queries_per_s\": %.1f,\n  \"batch_queries_per_s\": %.1f,\n", qps,
                 batch_qps);
    std::fprintf(f, "  \"batch_size\": %d,\n", batch_size);
    std::fprintf(f, "  \"p50_query_us\": %.3f,\n  \"p99_query_us\": %.3f,\n", p50_us, p99_us);
    std::fprintf(f, "  \"analytic_hit_rate\": %.6f,\n", sync_stats.analytic_hit_rate());
    std::fprintf(f, "  \"tail_p99_us\": %.3f,\n", tail_q_us[0]);
    std::fprintf(f, "  \"strict_failures\": %d\n}\n", g_failures);
    std::fclose(f);
  }

  std::printf("headline: %.0f queries/s sync, %.0f queries/s batched, p99 %.2f us, "
              "hit rate %.2f%%\n",
              qps, batch_qps, p99_us, 100.0 * sync_stats.analytic_hit_rate());
  if (opt.strict && g_failures > 0) {
    std::fprintf(stderr, "bench_serve: %d strict failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
