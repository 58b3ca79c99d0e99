// Differential property test: the analytic latency engine (core/latency_model)
// against the event simulation (core/e2e_system), over every Table 1 duplex
// configuration x every access mode x a sweep of arrival offsets.
//
// Both engines are built on the same opportunity primitives
// (tdd/opportunity.hpp), so with a zero-jitter stack — zero processing
// draws, free bus, no RF chain delay or receive floor, free core network,
// idealised scheduler — the simulated end-to-end latency must (a) never
// exceed the analytic worst case and (b) meet it: the bound is tight within
// one symbol at the worst arrival offset. Any drift between the two engines
// (a scheduler booking bug, an opportunity off-by-one-symbol, a stray
// latency floor) breaks one of these properties.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/e2e_system.hpp"
#include "core/feasibility.hpp"
#include "core/latency_model.hpp"
#include "radio/radio_head.hpp"

namespace u5g {
namespace {

constexpr AccessMode kModes[] = {AccessMode::GrantFreeUl, AccessMode::GrantBasedUl,
                                 AccessMode::Downlink};

/// The zero-jitter stack for `duplex` in access mode `mode`: protocol
/// geometry is the only latency source left, exactly what the analytic
/// idealised parameters describe.
StackConfig zero_jitter_config(std::shared_ptr<const DuplexConfig> duplex, AccessMode mode) {
  StackConfig cfg;
  cfg.duplex = std::move(duplex);
  cfg.sched = SchedulerParams::idealised();
  cfg.sched.ul_tx_symbols = 2;  // = LatencyModelParams::data_tx_symbols
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
    cfg.sr = SrConfig::every_symbol();  // footnote 2: SR at any UL symbol
  }
  return cfg;
}

/// Arrival offsets within one period: every symbol boundary, the instant
/// just after it (the paper's "just after a slot starts" hazard), the
/// symbol midpoint, and the analytically-worst offset itself.
std::vector<Nanos> sweep_offsets(const DuplexConfig& cfg, Nanos worst_offset) {
  const Nanos sym = cfg.numerology().symbol_duration();
  const Nanos period = cfg.period();
  std::vector<Nanos> offsets;
  for (Nanos b = Nanos::zero(); b < period; b += sym) {
    offsets.push_back(b);
    offsets.push_back(b + Nanos{1});
    offsets.push_back(b + sym / 2);
  }
  offsets.push_back(worst_offset);
  return offsets;
}

struct SweepResult {
  std::vector<Nanos> sim;       ///< simulated latency per offset
  std::vector<Nanos> analytic;  ///< analytic latency at the same offset
  std::uint64_t upgraded = 0;   ///< dynamic-TDD slots upgraded during the run
};

/// One zero-jitter system per (config, mode); one packet per offset, each in
/// its own far-apart time slice so packets never interact. The stack is
/// fully deterministic here (zero draws, no losses), so each record's
/// latency is THE latency at its arrival offset.
SweepResult run_sweep(const std::shared_ptr<const DuplexConfig>& duplex, AccessMode mode,
                      const std::vector<Nanos>& offsets, bool dynamic_tdd = false) {
  const Nanos period = duplex->period();
  const Nanos spacing = period * 8;
  StackConfig cfg = zero_jitter_config(duplex, mode);
  cfg.dynamic_tdd.enabled = dynamic_tdd;
  E2eSystem sys(cfg);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Nanos at = spacing * static_cast<std::int64_t>(i + 1) + offsets[i];
    if (mode == AccessMode::Downlink) {
      sys.send_downlink_at(at);
    } else {
      sys.send_uplink_at(at);
    }
  }
  sys.run_until(spacing * static_cast<std::int64_t>(offsets.size() + 4));

  SweepResult r;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const PacketRecord& rec = sys.records()[i];
    EXPECT_TRUE(rec.ok) << to_string(mode) << " offset " << offsets[i].count() << "ns undelivered";
    r.sim.push_back(rec.ok ? rec.latency() : Nanos::max());
    r.analytic.push_back(trace_transmission(*duplex, mode, rec.created).latency());
  }
  r.upgraded = sys.dynamic_upgraded_slots();
  return r;
}

TEST(AnalyticVsSimTest, Table1SweepBoundHoldsAndIsTight) {
  for (auto& owned : table1_configs()) {
    const std::shared_ptr<const DuplexConfig> duplex{std::move(owned)};
    const Nanos sym = duplex->numerology().symbol_duration();
    for (AccessMode mode : kModes) {
      SCOPED_TRACE(duplex->name() + std::string{" / "} + to_string(mode));
      const WorstCaseResult wc = analyze_worst_case(*duplex, mode);
      ASSERT_TRUE(wc.feasible);

      const std::vector<Nanos> offsets = sweep_offsets(*duplex, wc.worst_arrival_offset);
      const SweepResult r = run_sweep(duplex, mode, offsets);

      Nanos sim_worst = Nanos::zero();
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        // (a) The analytic worst case upper-bounds the zero-jitter sim at
        // every offset (our probe points are a subset of the analyzer's).
        EXPECT_LE(r.sim[i].count(), wc.worst.count())
            << "offset " << offsets[i].count() << "ns exceeds the analytic worst case";
        // Differential agreement: the two engines track each other to
        // within one symbol at every single offset.
        EXPECT_LE(std::abs((r.sim[i] - r.analytic[i]).count()), sym.count())
            << "offset " << offsets[i].count() << "ns: sim " << r.sim[i].count()
            << "ns vs analytic " << r.analytic[i].count() << "ns";
        sim_worst = std::max(sim_worst, r.sim[i]);
      }
      // (b) Tightness: at the worst offset the simulation comes within one
      // symbol of the bound — the analysis is not conservatively padded.
      EXPECT_GE(sim_worst.count(), (wc.worst - sym).count())
          << "analytic worst " << wc.worst.count() << "ns is not tight (sim max "
          << sim_worst.count() << "ns)";
    }
  }
}

// The dynamic-format policy with nothing but isolated single probes commits
// zero upgrades (demand requires *excess* backlog, never a lone packet), so
// the full Table 1 sweep passes the identical ≤1-symbol differential gate
// with the policy switched on: enabling it unloaded perturbs nothing.
TEST(AnalyticVsSimTest, DynamicPolicyIdleKeepsTable1SweepGate) {
  for (auto& owned : table1_configs()) {
    const std::shared_ptr<const DuplexConfig> duplex{std::move(owned)};
    const Nanos sym = duplex->numerology().symbol_duration();
    for (AccessMode mode : kModes) {
      SCOPED_TRACE(duplex->name() + std::string{" / "} + to_string(mode) + " / dynamic");
      const WorstCaseResult wc = analyze_worst_case(*duplex, mode);
      ASSERT_TRUE(wc.feasible);

      const std::vector<Nanos> offsets = sweep_offsets(*duplex, wc.worst_arrival_offset);
      const SweepResult r = run_sweep(duplex, mode, offsets, /*dynamic_tdd=*/true);

      EXPECT_EQ(0u, r.upgraded) << "an isolated probe must never trigger an upgrade";
      Nanos sim_worst = Nanos::zero();
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        EXPECT_LE(r.sim[i].count(), wc.worst.count())
            << "offset " << offsets[i].count() << "ns exceeds the static analytic worst case";
        EXPECT_LE(std::abs((r.sim[i] - r.analytic[i]).count()), sym.count())
            << "offset " << offsets[i].count() << "ns: sim " << r.sim[i].count()
            << "ns vs analytic " << r.analytic[i].count() << "ns";
        sim_worst = std::max(sim_worst, r.sim[i]);
      }
      EXPECT_GE(sim_worst.count(), (wc.worst - sym).count());
    }
  }
}

// Under load the policy does upgrade slots — and because committed formats
// only ever *add* capability on top of the static pattern (monotone
// relaxation), adaptive operation can shorten waits but never lengthen them:
// every probe stays under the static analytic worst case.
TEST(AnalyticVsSimTest, DynamicUpgradesNeverExceedStaticBound) {
  std::uint64_t total_upgrades = 0;
  for (auto& owned : table1_configs()) {
    const std::shared_ptr<const DuplexConfig> duplex{std::move(owned)};
    for (AccessMode mode : kModes) {
      SCOPED_TRACE(duplex->name() + std::string{" / "} + to_string(mode) + " / primed");
      const WorstCaseResult wc = analyze_worst_case(*duplex, mode);
      ASSERT_TRUE(wc.feasible);
      const Nanos period = duplex->period();

      StackConfig cfg = zero_jitter_config(duplex, mode);
      cfg.dynamic_tdd.enabled = true;
      E2eSystem sys(cfg);
      const auto inject = [&](Nanos at) {
        if (mode == AccessMode::Downlink) {
          sys.send_downlink_at(at);
        } else {
          sys.send_uplink_at(at);
        }
      };

      // Prime: a near-simultaneous burst at the worst arrival offset queues
      // across slot boundaries, so decision ticks observe excess backlog.
      constexpr int kBurst = 8;
      for (int i = 0; i < kBurst; ++i) inject(wc.worst_arrival_offset + Nanos{i});
      // Probes in post-drain gaps: the analytic worst case describes a lone
      // packet, so every probe sits well past the burst's drain (8 packets
      // serve in < 16 periods even fully serialised) and 8 periods apart.
      std::vector<Nanos> probes;
      for (int k = 0; k < 4; ++k) {
        probes.push_back(period * (24 + 8 * k) + wc.worst_arrival_offset);
      }
      for (const Nanos at : probes) inject(at);
      sys.run_until(period * 64);

      for (std::size_t p = 0; p < probes.size(); ++p) {
        const PacketRecord& rec = sys.records()[static_cast<std::size_t>(kBurst) + p];
        ASSERT_TRUE(rec.ok) << "probe " << p << " undelivered";
        EXPECT_LE(rec.latency().count(), wc.worst.count())
            << "probe at " << rec.created.count()
            << "ns exceeds the static analytic worst case under the dynamic policy";
      }
      total_upgrades += sys.dynamic_upgraded_slots();
    }
  }
  // The sweep as a whole must have exercised real upgrades (FDD alone cannot:
  // there is nothing to add to an all-capable pattern).
  EXPECT_GT(total_upgrades, 0u);
}

// The idealised radio really is free: no hidden floors survive in the
// receive path (this is what makes the exact agreement above possible).
TEST(AnalyticVsSimTest, IdealRadioHasNoHiddenReceiveFloor) {
  RadioHead rh(RadioHeadParams::ideal(), Rng(1));
  EXPECT_EQ(0, rh.rx_delivery_latency(4096).count());
  EXPECT_EQ(0, rh.nominal_tx_latency(4096).count());
  // The default B210 keeps its §7 behaviour: a positive receive-side floor.
  RadioHead b210(RadioHeadParams::usrp_b210_usb2(), Rng(1));
  EXPECT_GT(b210.rx_delivery_latency(4096).count(), 0);
}

}  // namespace
}  // namespace u5g
