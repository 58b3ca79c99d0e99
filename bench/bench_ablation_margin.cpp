// Ablation A3 (§4/§6): scheduler lead (radio allowance + margin) vs
// reliability. "Practical implementations require the scheduler to include a
// margin to ensure the radio is ready on time, further increasing latency" —
// and §4: without it, "the radio [is] not ready for transmission, leading to
// a corrupted signal."
//
// E2E sweep of the staging lead on the testbed configuration: a short lead
// minimises queueing but the USB bus + OS spikes miss slots (corrupted ->
// HARQ retransmission -> latency tail / loss); a generous lead wastes
// latency on every packet but is clean. The six lead points run concurrently
// on the Monte-Carlo runner's crew with the legacy per-point seeds.

#include <cstdio>

#include "common/cli.hpp"
#include "core/e2e_system.hpp"
#include "core/reliability.hpp"
#include "sim/runner.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

struct Outcome {
  double mean_ms;
  double p999_ms;
  std::uint64_t misses;
  double reliability_3ms;
};

Outcome run(Nanos lead, int packets, std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_based(seed);
  cfg.sched.radio_lead = lead;
  E2eSystem sys(std::move(cfg));
  Rng rng(seed * 13 + 5);
  const Nanos period = 2_ms;
  for (int i = 0; i < packets; ++i) {
    sys.send_downlink_at(period * (2 * i) +
                         Nanos{static_cast<std::int64_t>(
                             rng.uniform() * static_cast<double>(period.count()))});
  }
  sys.run_until(period * (2 * packets + 40));
  auto lat = sys.latency_samples_us(Direction::Downlink);
  const auto rel = evaluate_reliability(lat, static_cast<std::size_t>(packets), 3_ms);
  return {lat.mean() / 1e3, lat.quantile(0.999) / 1e3, sys.radio_deadline_misses(),
          rel.fraction_within};
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.packets = 1500;
  defaults.seed = 100;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);

  std::printf("== Ablation A3: scheduler lead/margin vs DL reliability (testbed, USB2 RH) ==\n\n");
  std::printf("   %9s | %9s %9s %8s %16s\n", "lead[us]", "mean[ms]", "p99.9[ms]", "misses",
              "P(lat<=3ms)");

  const Nanos leads[] = {Nanos{350'000}, Nanos{400'000}, Nanos{450'000},
                         Nanos{500'000}, Nanos{700'000}, Nanos{1'000'000}};
  const auto outcomes = run_replications(
      static_cast<int>(std::size(leads)), opt.seed,
      [&](int i, std::uint64_t) {
        return run(leads[static_cast<std::size_t>(i)], opt.packets,
                   opt.seed + static_cast<std::uint64_t>(i));
      },
      {opt.threads});

  std::uint64_t misses_short = 0;
  std::uint64_t misses_long = 0;
  double mean_sweet = 0.0;  // the well-tuned middle (one-slot lead)
  double mean_long = 0.0;
  for (std::size_t i = 0; i < std::size(leads); ++i) {
    const Outcome& o = outcomes[i];
    std::printf("   %9.0f | %9.3f %9.3f %8llu %15.4f%%\n", leads[i].us(), o.mean_ms, o.p999_ms,
                static_cast<unsigned long long>(o.misses), o.reliability_3ms * 100.0);
    if (i == 0) misses_short = o.misses;
    if (leads[i] == Nanos{500'000}) mean_sweet = o.mean_ms;
    if (i + 1 == std::size(leads)) { misses_long = o.misses; mean_long = o.mean_ms; }
  }

  // The §4/§6 trade-off: too little lead corrupts slots (misses, retx tail);
  // extra lead beyond what the radio needs just buys latency on every packet.
  // Thresholds scale with the packet count so quick smoke configurations
  // (--packets 200) exercise the same check as the full run.
  const bool tradeoff = misses_short > static_cast<std::uint64_t>(opt.packets / 15) &&
                        misses_long == 0 && mean_long > mean_sweet;
  std::printf("\nshort lead -> corrupted slots (retx tail); oversized lead -> higher base "
              "latency than the tuned one-slot lead: %s\n",
              tradeoff ? "CONFIRMED" : "NOT OBSERVED");
  return tradeoff ? 0 : 1;
}
