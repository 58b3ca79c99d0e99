#pragma once
// Scenario-scripted fault injection: *what* goes wrong, *when*, on the
// simulated clock.
//
// The paper's §6 measurement says the URLLC killer is not the mean but rare
// correlated events — OS-jitter spikes, bus stalls, loss bursts. A
// FaultScenario is one such event source: a kind (bursty channel loss,
// OS-jitter storm, radio-bus stall, UPF outage) plus an activation window
// that may be one-shot, periodic, or always-on. StackConfig carries a list
// of scenarios; core/e2e_system builds a FaultInjector over them (one
// SplitMix64-derived stream per scenario, independent of the main
// simulation stream) and queries it at the affected boundaries.
//
// Determinism contract: activation is a pure function of the simulated
// clock, and every stochastic draw comes from the scenario's own stream in
// event order — so runs are bitwise-reproducible from the seed, across
// thread counts, and under the sharded engine (each cell derives its own
// fault streams from its per-cell seed). With an empty scenario list the
// injector is never consulted and the legacy i.i.d. `channel_loss` path is
// taken verbatim: existing seeds and goldens are bit-identical.

#include <cstdint>

#include "common/time.hpp"
#include "fault/gilbert_elliott.hpp"
#include "os/jitter.hpp"

namespace u5g {

/// When a scenario is active, on the simulated clock.
struct FaultWindow {
  Nanos start{};     ///< first activation instant
  Nanos duration{};  ///< window length; <= 0 means "active forever from start"
  Nanos period{};    ///< repeat spacing; <= 0 means one-shot

  /// Active from t=0 for the whole run (the natural choice for BurstLoss).
  static FaultWindow always() { return {}; }
  static FaultWindow periodic(Nanos start, Nanos duration, Nanos period) {
    return {start, duration, period};
  }

  [[nodiscard]] bool active_at(Nanos now) const {
    if (now < start) return false;
    if (duration <= Nanos::zero()) return true;
    const Nanos since = now - start;
    if (period <= Nanos::zero()) return since < duration;
    return since % period < duration;
  }
};

enum class FaultKind : std::uint8_t {
  BurstLoss,      ///< Gilbert–Elliott channel process replacing i.i.d. loss
  OsJitterStorm,  ///< extra OS-scheduling jitter on stack traversals (Fig 5 spikes)
  RadioBusStall,  ///< fixed stall added to radio-bus transfers (USB URB backlog)
  UpfOutage,      ///< core-network brown-out: drops and/or added forwarding delay
};

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::BurstLoss: return "burst_loss";
    case FaultKind::OsJitterStorm: return "os_jitter_storm";
    case FaultKind::RadioBusStall: return "radio_bus_stall";
    case FaultKind::UpfOutage: return "upf_outage";
  }
  return "?";
}

/// One scripted fault source. Only the parameter block matching `kind` is
/// read; the factories below keep construction misuses impossible.
struct FaultScenario {
  FaultKind kind = FaultKind::BurstLoss;
  FaultWindow window = FaultWindow::always();

  GilbertElliott::Params ge{};        ///< BurstLoss
  JitterParams storm{};               ///< OsJitterStorm: *additional* jitter mixture
  Nanos bus_stall{};                  ///< RadioBusStall: added per-transfer latency
  double upf_drop_prob = 0.0;         ///< UpfOutage: per-packet drop probability
  Nanos upf_extra_delay{};            ///< UpfOutage: added forwarding latency

  static FaultScenario burst_loss(GilbertElliott::Params p,
                                  FaultWindow w = FaultWindow::always()) {
    FaultScenario s;
    s.kind = FaultKind::BurstLoss;
    s.window = w;
    s.ge = p;
    return s;
  }

  /// The Fig 5 spike regime as an injectable event: while the window is
  /// active, every stack traversal draws one extra jitter sample from
  /// `storm` (default: frequent, large preemption spikes).
  static FaultScenario os_jitter_storm(FaultWindow w,
                                       JitterParams storm = {Nanos::zero(), Nanos::zero(), 0.5,
                                                             Nanos{200'000}, Nanos{800'000}}) {
    FaultScenario s;
    s.kind = FaultKind::OsJitterStorm;
    s.window = w;
    s.storm = storm;
    return s;
  }

  static FaultScenario radio_bus_stall(FaultWindow w, Nanos stall) {
    FaultScenario s;
    s.kind = FaultKind::RadioBusStall;
    s.window = w;
    s.bus_stall = stall;
    return s;
  }

  static FaultScenario upf_outage(FaultWindow w, double drop_prob, Nanos extra_delay) {
    FaultScenario s;
    s.kind = FaultKind::UpfOutage;
    s.window = w;
    s.upf_drop_prob = drop_prob;
    s.upf_extra_delay = extra_delay;
    return s;
  }
};

}  // namespace u5g
