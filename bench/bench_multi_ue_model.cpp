// Extension X4 (§9): the analytical multi-UE latency model, validated
// against the full event simulation. The paper poses "how to mathematically
// model the latency for multiple UEs" as an open problem; this bench runs
// the closed-form M/D/1-on-protocol-geometry model side by side with the
// simulator across UE counts and offered loads, fanning the (UEs, load)
// cases across the Monte-Carlo runner's crew with the legacy per-case seeds.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/multi_ue_model.hpp"
#include "sim/runner.hpp"
#include "tdd/common_config.hpp"
#include "tdd/opportunity.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

/// Simulation counterpart — the model's exact referent: Poisson arrivals
/// from N UEs into one FIFO, served one packet per UL window over the *real*
/// slot geometry (windows packed back-to-back, as the scheduler's booking
/// serialises them). No processing or radio terms: protocol + queueing only.
double simulate_mean_ul_us(const DuplexConfig& duplex, int n_ues, double per_ue_pps,
                           int tx_symbols, double horizon_s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Nanos> arrivals;
  for (int ue = 0; ue < n_ues; ++ue) {
    double t = 0.0;
    while (true) {
      // Rng::exponential takes the MEAN (seconds here), so rate -> 1/rate.
      t += rng.exponential(1.0 / per_ue_pps);
      if (t >= horizon_s) break;
      arrivals.push_back(Nanos{static_cast<std::int64_t>(t * 1e9)});
    }
  }
  std::ranges::sort(arrivals);

  SampleSet lat;
  Nanos server_free = Nanos::zero();
  for (const Nanos a : arrivals) {
    const Nanos start_from = std::max(a, server_free);
    const auto w = next_ul_tx(duplex, start_from, tx_symbols);
    if (!w) break;
    lat.add((w->end - a).us());
    server_free = w->end;
  }
  return lat.mean();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.packets = 4000;  // scales the simulated horizon (packets at 1000 pps)
  defaults.seed = 500;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);
  const double horizon_s = static_cast<double>(opt.packets) / 1000.0;

  std::printf("== X4: analytical multi-UE latency model vs simulation (DM, grant-free) ==\n\n");

  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const double capacity = ul_windows_per_second(dm, 2);
  std::printf("UL capacity at 2-symbol windows: %.0f windows/s\n\n", capacity);
  std::printf("   %4s %10s %6s | %12s %12s %10s | %12s | %7s\n", "UEs", "pps/UE", "rho",
              "proto[us]", "queue[us]", "model[us]", "sim[us]", "err");

  struct Case {
    int ues;
    double pps;
  };
  const Case cases[] = {{1, 200}, {2, 400}, {4, 400}, {8, 400}, {8, 800}, {12, 800}};

  struct Row {
    MultiUeModelResult model{};
    double sim = 0.0;
  };
  const auto rows = run_replications(
      static_cast<int>(std::size(cases)), opt.seed,
      [&](int i, std::uint64_t) {
        const Case& c = cases[static_cast<std::size_t>(i)];
        MultiUeModelInput in;
        in.num_ues = c.ues;
        in.per_ue_packets_per_second = c.pps;
        in.tx_symbols = 2;
        Row row;
        row.model = predict_multi_ue_latency(dm, in);
        row.sim = simulate_mean_ul_us(dm, c.ues, c.pps, 2, horizon_s,
                                      opt.seed + static_cast<std::uint64_t>(i));
        return row;
      },
      {opt.threads});

  bool all_close = true;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& [model, sim] = rows[i];
    if (!model.stable) {
      std::printf("   %4d %10.0f %6.2f | %12.1f %12s %10s | %12.1f | %7s\n", cases[i].ues,
                  cases[i].pps, model.utilisation, model.protocol_mean.us(), "-", "UNSTABLE",
                  sim, "-");
      continue;
    }
    const double model_us = model.total_mean.us();
    const double err = std::abs(model_us - sim) / sim;
    std::printf("   %4d %10.0f %6.2f | %12.1f %12.1f %10.1f | %12.1f | %6.1f%%\n",
                cases[i].ues, cases[i].pps, model.utilisation, model.protocol_mean.us(),
                model.queue_wait_mean.us(), model_us, sim, err * 100);
    // Accept 30 % at moderate load (the model ignores window-boundary
    // phase correlations the simulation has).
    if (model.utilisation < 0.85 && err > 0.30) all_close = false;
  }

  // Saturation is predicted, not silently mis-estimated.
  MultiUeModelInput sat;
  sat.num_ues = 64;
  sat.per_ue_packets_per_second = 2000;
  const auto overload = predict_multi_ue_latency(dm, sat);
  std::printf("\n64 UEs x 2000 pps: rho=%.2f -> %s\n", overload.utilisation,
              overload.stable ? "stable (unexpected!)" : "UNSTABLE, as the model flags");

  const bool ok = all_close && !overload.stable;
  std::printf("\nclosed-form model tracks the simulator below saturation: %s\n",
              ok ? "CONFIRMED" : "NOT OBSERVED");
  return ok ? 0 : 1;
}
