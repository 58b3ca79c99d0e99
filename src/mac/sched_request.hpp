#pragma once
// Scheduling-request procedure (TS 38.213 §9.2.4; paper §3 step ②).
//
// A UE with uplink data but no grant transmits a one-bit SR on PUCCH and
// waits for an uplink grant. SR opportunities are periodic; the period is a
// protocol-latency lever the paper calls out explicitly ("period of
// scheduling requests", §1). With `periodicity == symbol duration` the model
// matches footnote 2's idealisation (SR possible at any UL symbol); the
// testbed reproduction (§7) uses per-slot opportunities.

#include <optional>

#include "common/time.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

struct SrConfig {
  /// Spacing between SR opportunities on the UE's PUCCH resource. The
  /// opportunity must also fall on uplink-capable symbols.
  Nanos periodicity{};
  /// SR transmission length in symbols (one-bit PUCCH format 0: 1 symbol).
  int sr_symbols = 1;

  /// Idealised: SR possible at any UL symbol (periodicity = 0 means "every
  /// symbol"). Matches the §5 analysis.
  static SrConfig every_symbol() { return {Nanos::zero(), 1}; }

  /// One SR opportunity per slot — the software-testbed configuration.
  static SrConfig per_slot(Numerology num) { return {num.slot_duration(), 1}; }
};

/// UE-side SR opportunity lookup.
class SrProcedure {
 public:
  explicit SrProcedure(SrConfig cfg) : cfg_(cfg) {}

  /// Earliest SR transmission window at or after `t`. With a positive
  /// periodicity there is one opportunity per grid period: the first
  /// UL-capable window at or after the grid point (the PUCCH resource's
  /// offset anchors it within the period; grid points need not coincide
  /// with UL symbols). Zero periodicity = any UL symbol (footnote 2).
  [[nodiscard]] std::optional<TxWindow> next_sr_opportunity(const DuplexConfig& duplex,
                                                            Nanos t) const {
    if (cfg_.periodicity <= Nanos::zero()) {
      return next_ul_tx(duplex, t, cfg_.sr_symbols);
    }
    // The current grid period's opportunity, if `t` has not passed it yet.
    const Nanos this_grid = align_down(t, cfg_.periodicity);
    const auto w = next_ul_tx(duplex, this_grid, cfg_.sr_symbols);
    if (w && w->start >= t) return w;
    Nanos from = align_up(t, cfg_.periodicity);
    if (from == t) from = t + cfg_.periodicity;
    return next_ul_tx(duplex, from, cfg_.sr_symbols);
  }

 private:
  SrConfig cfg_;
};

}  // namespace u5g
