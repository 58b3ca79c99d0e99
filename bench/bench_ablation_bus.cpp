// Ablation A5 (§4): the radio interface bus. "Radio latency varies
// significantly depending on the interface used, such as PCIe, Ethernet, or
// USB, to connect the RH to the processor running the 5G stack."
//
// Same testbed E2E run with four radio-head buses; the scheduler lead is
// adapted to each bus's nominal cost (as a real deployment would tune it).
// The four bus candidates run concurrently on the Monte-Carlo runner's crew;
// per-point seeds keep the legacy derivation (base seed + point index), so
// results are identical to the serial sweep at any thread count.

#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "core/e2e_system.hpp"
#include "sim/runner.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

struct Outcome {
  double dl_mean_ms;
  double dl_p99_ms;
  double ul_mean_ms;
};

Outcome run(const RadioHeadParams& rh, int packets, std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_free(seed);
  cfg.gnb_radio = rh;
  // Tune the staging lead to this bus: nominal slot-buffer cost + slack.
  RadioHead probe(rh, Rng{1});
  const Nanos nominal = probe.nominal_tx_latency(rh.sample_rate.samples_in(500_us));
  cfg.sched.radio_lead = nominal + 150_us;
  E2eSystem sys(std::move(cfg));
  Rng rng(seed + 9);
  const Nanos period = 2_ms;
  for (int i = 0; i < packets; ++i) {
    const Nanos base = period * (2 * i);
    const auto off = [&] {
      return Nanos{static_cast<std::int64_t>(rng.uniform() * static_cast<double>(period.count()))};
    };
    sys.send_downlink_at(base + off());
    sys.send_uplink_at(base + period + off());
  }
  sys.run_until(period * (2 * packets + 40));
  auto dl = sys.latency_samples_us(Direction::Downlink);
  auto ul = sys.latency_samples_us(Direction::Uplink);
  return {dl.mean() / 1e3, dl.quantile(0.99) / 1e3, ul.mean() / 1e3};
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.packets = 1200;
  defaults.seed = 50;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);

  std::printf("== Ablation A5: radio-head bus vs end-to-end latency (testbed, grant-free) ==\n\n");
  std::printf("   %-20s %12s %12s %12s\n", "bus", "DL mean[ms]", "DL p99[ms]", "UL mean[ms]");

  struct Candidate {
    const char* name;
    RadioHeadParams rh;
  };
  const Candidate candidates[] = {
      {"USB 2.0 (B210)", RadioHeadParams::usrp_b210_usb2()},
      {"USB 3.0", RadioHeadParams::usrp_b210_usb3()},
      {"Ethernet (eCPRI)",
       RadioHeadParams{BusParams::ethernet_ecpri(), SampleRate{}, Nanos{20'000}, Nanos{25'000}}},
      {"PCIe", RadioHeadParams::pcie_sdr()},
  };

  const auto outcomes = run_replications(
      static_cast<int>(std::size(candidates)), opt.seed,
      [&](int i, std::uint64_t) {
        // Legacy per-point seeds (base + index): byte-identical to the
        // serial sweep regardless of the thread count.
        return run(candidates[static_cast<std::size_t>(i)].rh, opt.packets,
                   opt.seed + static_cast<std::uint64_t>(i));
      },
      {opt.threads});

  double usb2_mean = 0.0;
  double pcie_mean = 0.0;
  for (std::size_t i = 0; i < std::size(candidates); ++i) {
    const Outcome& o = outcomes[i];
    std::printf("   %-20s %12.3f %12.3f %12.3f\n", candidates[i].name, o.dl_mean_ms, o.dl_p99_ms,
                o.ul_mean_ms);
    if (i == 0) usb2_mean = o.dl_mean_ms;
    if (i + 1 == std::size(candidates)) pcie_mean = o.dl_mean_ms;
  }

  const bool ok = pcie_mean < usb2_mean;
  std::printf("\nPCIe beats USB 2.0 end to end (radio latency is a first-class bottleneck): %s\n",
              ok ? "CONFIRMED" : "NOT OBSERVED");
  return ok ? 0 : 1;
}
