// Ablation A7 (§1): the scheduling-request periodicity. The paper lists the
// "period of scheduling requests" among the protocol configurations that
// affect latency. Sweep the SR periodicity on the testbed configuration and
// measure grant-based uplink latency: sparse SR opportunities add their own
// waiting stage in front of the whole handshake.

#include <cstdio>

#include "core/e2e_system.hpp"
#include "mac/sched_request.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

constexpr int kPackets = 1200;

struct Outcome {
  double mean_ms;
  double p99_ms;
};

Outcome run(Nanos sr_period, std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_based(seed);
  cfg.sr = SrConfig{sr_period, 1};
  E2eSystem sys(std::move(cfg));
  Rng rng(seed + 1);
  const Nanos pattern = 2_ms;
  for (int i = 0; i < kPackets; ++i) {
    sys.send_uplink_at(pattern * (3 * i) +
                       Nanos{static_cast<std::int64_t>(
                           rng.uniform() * static_cast<double>(pattern.count()))});
  }
  sys.run_until(pattern * (3 * kPackets + 60));
  auto lat = sys.latency_samples_us(Direction::Uplink);
  return {lat.mean() / 1e3, lat.quantile(0.99) / 1e3};
}

}  // namespace

int main() {
  std::printf("== Ablation A7: SR periodicity vs grant-based UL latency (testbed, DDDU) ==\n\n");
  std::printf("   %14s | %9s %9s\n", "SR period", "mean[ms]", "p99[ms]");

  struct Case {
    const char* label;
    Nanos period;
  };
  const Case cases[] = {
      {"every symbol", Nanos::zero()},  // footnote 2's idealisation
      {"0.5 ms (slot)", 500_us},
      {"2 ms", 2_ms},
      {"4 ms", 4_ms},
      {"8 ms", 8_ms},
  };

  double first_mean = 0.0;
  double last_mean = 0.0;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Outcome o = run(cases[i].period, 300 + i);
    std::printf("   %14s | %9.3f %9.3f\n", cases[i].label, o.mean_ms, o.p99_ms);
    if (i == 0) first_mean = o.mean_ms;
    if (i + 1 == std::size(cases)) last_mean = o.mean_ms;
  }

  // Sparse SR opportunities add an extra waiting stage to the handshake;
  // with an 8 ms SR period the mean rises by more than a millisecond over
  // the dense-SR baseline.
  const bool ok = last_mean > first_mean + 1.0;
  std::printf("\nsparser SR opportunities push the whole handshake later: %s\n",
              ok ? "CONFIRMED" : "NOT OBSERVED");
  return ok ? 0 : 1;
}
