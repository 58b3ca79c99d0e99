// Ablation A6 (§5/§9): grant-free scalability. "Grant-free ... cannot scale
// to many UEs as these pre-allocated resources are limited and can be wasted
// if there are no uplink packets."
//
// Three views on the DM configuration:
//  1. Resource accounting: occasions a configured grant reserves per UE vs
//     the UL capacity of the pattern -> the max UE count and the wasted
//     fraction at a given traffic activity.
//  2. Contention (analytic): with N UEs sharing the UL symbols of each
//     period (occasions serialised), the extra worst-case wait.
//  3. Contention (simulated): the full multi-UE system under synchronised
//     bursts — per-UE mean/p99 uplink latency vs the number of UEs, for
//     grant-free and grant-based access. The eight (UE count x access mode)
//     simulations fan across the Monte-Carlo runner's crew.

#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/e2e_system.hpp"
#include "mac/configured_grant.hpp"
#include "sim/runner.hpp"
#include "tdd/common_config.hpp"
#include "tdd/opportunity.hpp"

using namespace u5g;
using namespace u5g::literals;

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.packets = 60;  // synchronised bursts per simulated point
  defaults.seed = 70;
  const BenchOptions opt = parse_bench_options(argc, argv, defaults);

  std::printf("== Ablation A6: grant-free scalability on the DM configuration (u=2) ==\n\n");

  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Numerology num = dm.numerology();

  // UL capacity: symbols per second the pattern offers.
  int ul_syms_per_period = 0;
  for (int s = 0; s < dm.period_slots(); ++s) {
    for (int k = 0; k < kSymbolsPerSlot; ++k) ul_syms_per_period += dm.ul_capable(s, k) ? 1 : 0;
  }
  const double periods_per_s = 1e9 / static_cast<double>(dm.period().count());
  const double ul_syms_per_s = ul_syms_per_period * periods_per_s;

  // Each UE's configured grant: one 2-symbol occasion per 0.5 ms period.
  const ConfiguredGrant cg{UeId{1}, ConfiguredGrantConfig::periodic(dm.period(), 128, 2)};
  const double occasions_per_s = cg.occasions_per_second(dm);
  const double syms_per_ue_per_s = occasions_per_s * 2.0;
  const int max_ues = static_cast<int>(ul_syms_per_s / syms_per_ue_per_s);

  std::printf("UL capacity: %d symbols/period = %.0f symbols/s\n", ul_syms_per_period,
              ul_syms_per_s);
  std::printf("per-UE configured grant: %.0f occasions/s (2 symbols each)\n", occasions_per_s);
  std::printf("=> hard ceiling: %d UEs before pre-allocations exhaust the UL symbols\n\n",
              max_ues);

  std::printf("-- waste: fraction of reserved symbols idle at traffic activity p --\n");
  std::printf("   %6s | %8s %8s %8s %8s\n", "UEs", "p=0.01", "p=0.1", "p=0.5", "p=1.0");
  for (int n : {1, 2, 4, 8, max_ues}) {
    const double reserved = std::min(1.0, n * syms_per_ue_per_s / ul_syms_per_s);
    std::printf("   %6d |", n);
    for (double p : {0.01, 0.1, 0.5, 1.0}) {
      std::printf(" %7.1f%%", reserved * (1.0 - p) * 100.0);
    }
    std::printf("\n");
  }

  // Contention view: N UEs' occasions serialised within each period's UL
  // region; UE k's occasion starts 2k symbols into the region, so its
  // protocol wait grows linearly until the region overflows into the next
  // period.
  std::printf("\n-- contention: added worst-case wait when N UEs share the UL region --\n");
  std::printf("   %6s %18s\n", "UEs", "extra wait [us]");
  const double sym_us = num.symbol_duration().us();
  bool grows = true;
  double prev = -1.0;
  for (int n : {1, 2, 3, 4}) {
    const int occasion_sym = 2 * (n - 1);
    double extra;
    if (occasion_sym + 2 <= ul_syms_per_period) {
      extra = occasion_sym * sym_us;
    } else {
      extra = dm.period().us();  // spilled into the next period
    }
    std::printf("   %6d %18.1f\n", n, extra);
    grows = grows && extra >= prev;
    prev = extra;
  }

  // Simulated contention: synchronised uplink bursts on the testbed config.
  // Fan the (UE count x access mode) grid across the runner's crew; legacy per-point
  // seeds (70+n grant-free, 90+n grant-based by default).
  std::printf("\n-- simulated: per-UE uplink latency under synchronised bursts (testbed) --\n");
  std::printf("   %6s | %18s | %18s\n", "UEs", "grant-free", "grant-based");
  std::printf("   %6s | %8s %9s | %8s %9s\n", "", "mean[ms]", "p99[ms]", "mean[ms]", "p99[ms]");
  const auto simulate = [&](int n_ues, bool grant_free, std::uint64_t seed) {
    StackConfig cfg = grant_free ? StackConfig::testbed_grant_free(seed)
                                 : StackConfig::testbed_grant_based(seed);
    cfg.num_ues = n_ues;
    E2eSystem sys(std::move(cfg));
    const Nanos pattern = 2_ms;
    for (int i = 0; i < opt.packets; ++i) {
      for (int ue = 0; ue < n_ues; ++ue) {
        sys.send_uplink_at(pattern * (4 * i) + Nanos{100'000}, ue);
      }
    }
    sys.run_until(pattern * 4 * (opt.packets + 20));
    return sys.latency_samples_us(Direction::Uplink);
  };
  const int ue_counts[] = {1, 2, 4, 8};
  auto lats = run_replications(
      8, opt.seed,
      [&](int i, std::uint64_t) {
        const int n = ue_counts[i % 4];
        const bool grant_free = i < 4;
        const std::uint64_t seed = opt.seed + (grant_free ? 0 : 20) + static_cast<std::uint64_t>(n);
        return simulate(n, grant_free, seed);
      },
      {opt.threads});
  double gf1 = 0.0, gf8 = 0.0;
  for (int i = 0; i < 4; ++i) {
    const int n = ue_counts[i];
    auto& gf_lat = lats[static_cast<std::size_t>(i)];
    auto& gb_lat = lats[static_cast<std::size_t>(i + 4)];
    std::printf("   %6d | %8.3f %9.3f | %8.3f %9.3f\n", n, gf_lat.mean() / 1e3,
                gf_lat.quantile(0.99) / 1e3, gb_lat.mean() / 1e3, gb_lat.quantile(0.99) / 1e3);
    if (n == 1) gf1 = gf_lat.mean();
    if (n == 8) gf8 = gf_lat.mean();
  }

  const bool ok = max_ues <= 8 && grows && gf8 > gf1;
  std::printf("\npre-allocation exhausts quickly and contention grows with UEs: %s\n",
              ok ? "CONFIRMED" : "NOT OBSERVED");
  std::printf("(the paper's §9 open problem: grant-free does not scale)\n");
  return ok ? 0 : 1;
}
