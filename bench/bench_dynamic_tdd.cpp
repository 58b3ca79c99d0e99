// Table 1, static vs dynamic: re-evaluates every candidate configuration x
// access mode with the dynamic slot-format policy (tdd/dynamic_format.hpp)
// switched on, against the same 0.5 ms one-way URLLC deadline.
//
// The static column is the paper's analytic worst case. The dynamic column
// is measured: a zero-jitter simulation is primed with a backlog burst so
// the policy commits upgraded slots, then lone probes sweep the arrival
// offsets of one period through the post-drain hold window — the worst
// probe latency is the configuration's adaptive worst case. Because the
// policy is a monotone relaxation (committed formats only ever add
// capability), the static bound is an upper bound of the dynamic column by
// construction; the interesting question is how far below it the adaptive
// waits land.
//
// `--strict` gates the headline claim: at least one statically-infeasible
// cell must cross to feasible under the dynamic policy, and no cell may
// regress feasible -> infeasible. `--threads N` (N > 1) appends a 2-cell
// sharded section exercising the cross-link interference exchange, with a
// bitwise 1-vs-N-worker determinism check under --strict.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/e2e_system.hpp"
#include "core/feasibility.hpp"
#include "core/latency_model.hpp"
#include "mac/scheduler.hpp"
#include "sim/sharded.hpp"

using namespace u5g;

namespace {

constexpr AccessMode kModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                 AccessMode::Downlink};

/// The analytic model's zero-jitter stack (mirrors tests/test_analytic_vs_sim):
/// protocol geometry is the only latency source, so the measured dynamic
/// worst case is directly comparable with the analytic static worst case.
StackConfig zero_jitter_config(std::shared_ptr<const DuplexConfig> duplex, AccessMode mode) {
  StackConfig cfg;
  cfg.duplex = std::move(duplex);
  cfg.sched = SchedulerParams::idealised();
  cfg.sched.ul_tx_symbols = 2;
  cfg.gnb_proc = ProcessingProfile::zero();
  cfg.ue_proc = ProcessingProfile::zero();
  cfg.gnb_radio = RadioHeadParams::ideal();
  cfg.ue_radio = RadioHeadParams::ideal();
  cfg.phy = PhyTimingParams{Nanos::zero(), Nanos::zero()};
  cfg.upf = UpfParams{Nanos::zero(), Nanos::zero(), 0.0, Nanos::zero()};
  cfg.seed = 1;
  if (mode == AccessMode::GrantFreeUl) {
    cfg.grant_free = true;
    cfg.cg = ConfiguredGrantConfig::every_symbol(/*tb=*/256, /*symbols=*/2);
  } else if (mode == AccessMode::GrantBasedUl) {
    cfg.grant_free = false;
    cfg.sr = SrConfig::every_symbol();
  }
  return cfg;
}

struct DynamicCell {
  std::string config;
  AccessMode mode{};
  std::int64_t static_ns = 0;      ///< analytic worst case (static pattern)
  std::int64_t static_sim_ns = 0;  ///< measured worst probe, policy disabled
  std::int64_t dynamic_ns = 0;     ///< measured worst probe under the policy
  bool static_ok = false;
  bool dynamic_ok = false;
  std::uint64_t upgraded_slots = 0;
};

struct ProbeSweep {
  Nanos worst = Nanos::zero();
  std::uint64_t upgraded = 0;
};

/// One probe sweep: per probed offset, one primed cycle — a backlog burst
/// latches the policy's hold (when enabled), the burst drains, and a lone
/// probe arrives at the offset inside the still-held upgrade window.
ProbeSweep run_probe_sweep(const std::shared_ptr<const DuplexConfig>& duplex, AccessMode mode,
                           const std::vector<Nanos>& offsets, Nanos worst_offset, bool dynamic) {
  const Nanos period = duplex->period();
  const Nanos cycle = period * 24;
  constexpr int kBurst = 6;

  StackConfig cfg = zero_jitter_config(duplex, mode);
  cfg.dynamic_tdd.enabled = dynamic;
  cfg.dynamic_tdd.hold_slots = 64;  // span the drain gap and the probe window
  E2eSystem sys(cfg);
  const auto inject = [&](Nanos at) {
    if (mode == AccessMode::Downlink) {
      sys.send_downlink_at(at);
    } else {
      sys.send_uplink_at(at);
    }
  };
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Nanos start = cycle * static_cast<std::int64_t>(i);
    for (int b = 0; b < kBurst; ++b) inject(start + worst_offset + Nanos{b});
    inject(start + period * 8 + offsets[i]);
  }
  sys.run_until(cycle * static_cast<std::int64_t>(offsets.size() + 2));

  ProbeSweep sweep;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const PacketRecord& rec = sys.records()[i * (kBurst + 1) + kBurst];
    if (!rec.ok) {
      std::fprintf(stderr, "bench_dynamic_tdd: %s/%s probe %zu undelivered\n",
                   duplex->name().c_str(), to_string(mode), i);
      sweep.worst = Nanos::max();
      break;
    }
    sweep.worst = std::max(sweep.worst, rec.latency());
  }
  sweep.upgraded = sys.dynamic_upgraded_slots();
  return sweep;
}

/// Measured adaptive worst case, paired with a static-policy control sweep
/// over the *identical* arrival pattern. The control is what the monotone
/// gate compares against: the analytic bound describes a lone packet, while
/// a probe landing exactly on a slot boundary behind a drained burst sits
/// one lattice point past that open supremum even with the policy disabled.
DynamicCell measure_dynamic(const std::shared_ptr<const DuplexConfig>& duplex, AccessMode mode,
                            const WorstCaseResult& wc, bool smoke) {
  const Nanos sym = duplex->numerology().symbol_duration();
  const Nanos period = duplex->period();

  std::vector<Nanos> offsets;
  const int stride = smoke ? 4 : 1;
  for (Nanos b = Nanos::zero(); b < period; b += sym * stride) {
    offsets.push_back(b);
    offsets.push_back(b + Nanos{1});
  }
  offsets.push_back(wc.worst_arrival_offset);

  const ProbeSweep st =
      run_probe_sweep(duplex, mode, offsets, wc.worst_arrival_offset, /*dynamic=*/false);
  const ProbeSweep dy =
      run_probe_sweep(duplex, mode, offsets, wc.worst_arrival_offset, /*dynamic=*/true);

  DynamicCell cell;
  cell.config = duplex->name();
  cell.mode = mode;
  cell.static_ns = wc.worst.count();
  cell.static_ok = wc.worst <= kUrllcOneWayDeadline;
  cell.static_sim_ns = st.worst.count();
  cell.dynamic_ns = dy.worst.count();
  cell.dynamic_ok = dy.worst <= kUrllcOneWayDeadline;
  cell.upgraded_slots = dy.upgraded;
  return cell;
}

/// Fixed-layout JSON (integer nanoseconds only) for the golden-file diff.
bool write_json(const std::string& path, const std::vector<DynamicCell>& cells, int flips,
                int regressions) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"bench\": \"bench_dynamic_tdd\",\n  \"deadline_ns\": %lld,\n",
               static_cast<long long>(kUrllcOneWayDeadline.count()));
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DynamicCell& c = cells[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"mode\": \"%s\", \"static_ns\": %lld, "
                 "\"static_sim_ns\": %lld, \"dynamic_ns\": %lld, \"static\": \"%s\", "
                 "\"dynamic\": \"%s\"}%s\n",
                 c.config.c_str(), to_string(c.mode), static_cast<long long>(c.static_ns),
                 static_cast<long long>(c.static_sim_ns), static_cast<long long>(c.dynamic_ns),
                 c.static_ok ? "ok" : "x", c.dynamic_ok ? "ok" : "x",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"infeasible_to_feasible\": %d,\n  \"regressions\": %d\n}\n", flips,
               regressions);
  std::fclose(f);
  return true;
}

/// 2-cell sharded scenario with the cross-link interference exchange live:
/// DL bursts keep both cells' added-DL activity up, UL traffic on each cell
/// faces the neighbour's activity through `xlink_ul_bler`.
struct ShardedOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t upgraded = 0;
  std::uint64_t xlink_losses = 0;
  std::uint64_t punctured = 0;
  SampleSet ul_us;
};

ShardedOutcome run_sharded(int threads, bool smoke) {
  auto owned = table1_configs();
  const std::shared_ptr<const DuplexConfig> duplex{std::move(owned[0])};  // DU
  StackConfig cfg = zero_jitter_config(duplex, AccessMode::GrantBasedUl);
  // A non-zero staging lead gives preemption something to steal: eMBB TBs
  // sit registered-but-not-on-air for this long before each window.
  cfg.sched.radio_lead = Nanos{100'000};
  cfg.num_ues = 2;
  cfg.num_cells = 2;
  cfg.intercell_load_coupling = 0.5;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  cfg.dynamic_tdd.xlink_ul_bler = 0.4;
  cfg.dynamic_tdd.hold_slots = 64;
  const Nanos period = duplex->period();
  const int rounds = smoke ? 12 : 48;

  ShardedEngine eng(cfg, ShardedOptions{threads});
  for (int r = 0; r < rounds; ++r) {
    const Nanos base = period * (4 * r + 1);
    for (int cell = 0; cell < 2; ++cell) {
      // DL backlog on the eMBB UE drives added-DL commits (the neighbour's
      // cross-link hazard) and stages puncture victims...
      for (int b = 0; b < 4; ++b) eng.send_downlink_at(base + Nanos{b}, cell, 1);
      // ...the URLLC UE's DL arrival lands inside the staging lead of the
      // next eMBB window (50 us before the slot, staged 100 us ahead), so
      // preemption can steal it...
      eng.send_downlink_at(base + period - Nanos{50'000}, cell, 0);
      // ...and UL traffic faces the neighbour's DL-upgrade activity.
      eng.send_uplink_at(base + period + Nanos{7}, cell, 0);
    }
  }
  eng.run_until(period * (4 * rounds + 16));

  ShardedOutcome out;
  out.delivered = eng.packets_delivered();
  out.upgraded = eng.dynamic_upgraded_slots();
  out.xlink_losses = eng.crosslink_ul_losses();
  out.punctured = eng.punctured_retx();
  out.ul_us = eng.latency_samples_us(Direction::Uplink);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_bench_options(argc, argv);
  std::printf("== Table 1 revisited: static pattern vs dynamic slot-format policy ==\n\n");

  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  for (auto& c : table1_configs()) cfgs.emplace_back(std::move(c));

  std::vector<DynamicCell> cells;
  for (const auto& duplex : cfgs) {
    for (AccessMode mode : kModes) {
      const WorstCaseResult wc = analyze_worst_case(*duplex, mode);
      cells.push_back(measure_dynamic(duplex, mode, wc, opt.smoke));
    }
  }

  TextTable out({"access mode", "config", "static [ms]", "dynamic [ms]", "static", "dynamic", ""});
  int flips = 0;
  int regressions = 0;
  for (const DynamicCell& c : cells) {
    const bool flip = !c.static_ok && c.dynamic_ok;
    const bool regress = c.static_ok && !c.dynamic_ok;
    flips += flip ? 1 : 0;
    regressions += regress ? 1 : 0;
    out.add_row({to_string(c.mode), c.config, fmt3(Nanos{c.static_ns}.ms()),
                 fmt3(Nanos{c.dynamic_ns}.ms()), c.static_ok ? "ok" : "x",
                 c.dynamic_ok ? "ok" : "x", flip ? "<- flips feasible" : (regress ? "REGRESSED" : "")});
  }
  std::printf("%s\n", out.render().c_str());
  std::printf("infeasible -> feasible flips: %d, regressions: %d\n", flips, regressions);

  bool strict_ok = true;
  if (opt.strict) {
    if (flips < 1) {
      std::fprintf(stderr, "STRICT: expected >= 1 infeasible->feasible flip, got %d\n", flips);
      strict_ok = false;
    }
    if (regressions != 0) {
      std::fprintf(stderr, "STRICT: %d cell(s) regressed feasible->infeasible\n", regressions);
      strict_ok = false;
    }
    for (const DynamicCell& c : cells) {
      // Monotone relaxation: against a static-policy control run on the
      // identical arrival pattern, adaptive can only shorten waits.
      if (c.dynamic_ns > c.static_sim_ns) {
        std::fprintf(stderr, "STRICT: %s/%s dynamic %lld ns exceeds static control %lld ns\n",
                     c.config.c_str(), to_string(c.mode), static_cast<long long>(c.dynamic_ns),
                     static_cast<long long>(c.static_sim_ns));
        strict_ok = false;
      }
    }
  }

  if (opt.threads > 1) {
    std::printf("\n== 2-cell sharded cross-link section (%d workers) ==\n", opt.threads);
    const ShardedOutcome got = run_sharded(opt.threads, opt.smoke);
    std::printf("delivered %llu, upgraded slots %llu, xlink UL losses %llu, punctured %llu\n",
                static_cast<unsigned long long>(got.delivered),
                static_cast<unsigned long long>(got.upgraded),
                static_cast<unsigned long long>(got.xlink_losses),
                static_cast<unsigned long long>(got.punctured));
    if (opt.strict) {
      const ShardedOutcome ref = run_sharded(1, opt.smoke);
      if (got.delivered != ref.delivered || got.upgraded != ref.upgraded ||
          got.xlink_losses != ref.xlink_losses || got.punctured != ref.punctured ||
          got.ul_us.samples() != ref.ul_us.samples()) {
        std::fprintf(stderr, "STRICT: sharded results differ between 1 and %d workers\n",
                     opt.threads);
        strict_ok = false;
      }
      if (got.upgraded == 0 || got.xlink_losses == 0 || got.punctured == 0) {
        std::fprintf(stderr,
                     "STRICT: sharded section exercised no upgrades/cross-link losses/punctures\n");
        strict_ok = false;
      }
    }
  }

  if (opt.json && !write_json(*opt.json, cells, flips, regressions)) {
    std::fprintf(stderr, "bench_dynamic_tdd: cannot write %s\n", opt.json->c_str());
    return 1;
  }
  return strict_ok ? 0 : 1;
}
