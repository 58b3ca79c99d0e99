#pragma once
// Dynamic slot-format selection (flexible TDD; Esswie & Pedersen,
// arXiv 1909.11305).
//
// The paper's Table 1 holds the duplex pattern fixed; this layer re-decides
// each slot's DL/UL split from MAC queue state. The central design rule is
// *monotone relaxation*: a committed per-slot format only ever ADDS
// capability on top of the static pattern, never removes it. Every static
// transmission opportunity therefore survives under the dynamic policy, and
// because each opportunity query (tdd/opportunity.hpp) is monotone in the
// direction map, the static analytic worst case (core/latency_model.hpp)
// remains a valid upper bound on the dynamic simulation by construction —
// the invariant test_analytic_vs_sim.cpp pins.
//
// The decision cycle: at the boundary of slot k the policy observes the
// cell's queue state and commits the format of slot k + guard_slots (the
// switching-latency guard — retuning and signalling need lead time). Demand
// is *excess backlog only* (retransmissions queued, SDUs beyond the one in
// flight): an isolated probe packet triggers zero upgrades, so enabling the
// policy on an unloaded cell perturbs nothing — the property that lets the
// differential sweep gate the dynamic sim at the same ≤1-symbol agreement
// as the static one.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "tdd/duplex_config.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {

/// Policy knobs; lives in StackConfig as `dynamic_tdd` and participates in
/// the canonical identity (a dynamic query can never hit a static-pattern
/// cache entry).
struct DynamicTddConfig {
  bool enabled = false;
  /// Switching-latency guard: a decision at the boundary of slot k earliest
  /// affects slot k + guard_slots.
  int guard_slots = 1;
  /// A granted upgrade is held for this many slots past its grant, so
  /// traffic arriving just after a burst drains still benefits.
  int hold_slots = 4;
  /// At most this many consecutive slots may carry a DL upgrade; the policy
  /// then emits one clean slot, so added DL can never starve the static UL
  /// pattern beyond this window.
  int ul_guard_slots = 4;
  /// URLLC DL arrivals (UE 0) may puncture in-flight eMBB TBs (UEs >= 1).
  bool preemption = false;
  /// Cross-link interference: extra UL loss probability per unit of
  /// aggregate neighbouring-cell DL-upgrade activity (sharded engine).
  double xlink_ul_bler = 0.0;
};

/// MAC-observable queue state at a slot boundary, gathered from
/// E2eSystem::mac_backlog() and the per-UE RLC queues.
struct TddQueueState {
  std::uint32_t sr_pending = 0;      ///< UEs with an SR latched
  std::uint32_t cg_armed = 0;        ///< UEs with a configured-grant service queued
  std::uint32_t ul_retx_tbs = 0;     ///< queued UL HARQ retransmissions
  std::uint32_t ul_queued_sdus = 0;  ///< SDUs waiting in UL RLC queues
  std::uint32_t dl_queued_sdus = 0;  ///< SDUs waiting in gNB DL RLC queues
  std::uint32_t dl_inflight_tbs = 0; ///< DL TBs registered but not yet on the air
};

/// One committed per-slot decision: the *added* capability masks (bit s =
/// symbol s gains that direction on top of the static pattern).
struct DecidedFormat {
  static constexpr std::uint16_t kAllSymbols = kSlotSymbolMask;

  std::uint16_t added_dl = 0;
  std::uint16_t added_ul = 0;

  [[nodiscard]] bool any() const { return (added_dl | added_ul) != 0; }
  /// The effective slot format once the added masks overlay the static
  /// base masks: DL-only symbols render Downlink, UL-only Uplink, and
  /// both-capable (or neither) Flexible — the TS 38.213 reading where a
  /// flexible symbol awaits further dynamic signalling.
  [[nodiscard]] SlotFormat to_slot_format(std::uint16_t base_dl, std::uint16_t base_ul) const;

  friend bool operator==(const DecidedFormat&, const DecidedFormat&) = default;
};

/// The per-slot decision state machine. Pure and deterministic: no RNG, the
/// emitted sequence is a function of the (slot, queue-state) sequence alone.
/// decide() must be called once per slot boundary in increasing slot order.
class DynamicFormatPolicy {
 public:
  /// Throws std::invalid_argument for `guard_slots < 0`, `hold_slots < 1`
  /// or `ul_guard_slots < 1`; nothing is clamped.
  DynamicFormatPolicy(const DuplexConfig& base, const DynamicTddConfig& cfg);

  /// Observe `q` at the boundary of slot `k`; returns the format committed
  /// for slot k + guard_slots.
  [[nodiscard]] DecidedFormat decide(SlotIndex k, const TddQueueState& q);

  /// Excess-backlog demand signals: a single in-flight packet is *not*
  /// demand (sr_pending == 1 is the probe's own grant cycle; one queued SDU
  /// is the head being served).
  [[nodiscard]] static bool ul_demand(const TddQueueState& q) {
    return q.ul_retx_tbs > 0 || q.ul_queued_sdus > 1 || q.sr_pending > 1;
  }
  [[nodiscard]] static bool dl_demand(const TddQueueState& q) {
    return q.dl_queued_sdus > 1 || q.dl_inflight_tbs > 1;
  }

  /// Slots committed with at least one added symbol so far.
  [[nodiscard]] std::uint64_t upgraded_slots() const { return upgraded_; }
  [[nodiscard]] const DynamicTddConfig& config() const { return cfg_; }

 private:
  const DuplexConfig& base_;
  DynamicTddConfig cfg_;
  SlotIndex ul_hold_until_ = std::numeric_limits<SlotIndex>::min();
  SlotIndex dl_hold_until_ = std::numeric_limits<SlotIndex>::min();
  int dl_run_ = 0;  ///< consecutive emitted slots carrying a DL upgrade
  std::uint64_t upgraded_ = 0;
};

/// A DuplexConfig that overlays committed per-slot upgrades on a static
/// base. Uncommitted slots (past the horizon, or before t=0) fall back to
/// the base — conservative, and monotone by construction: each slot's mask
/// is the base mask ORed with the committed overlay.
///
/// The overlay is aperiodic, so period_slots() reports the base skeleton's
/// period: callers that sweep "one period" sweep the static structure, which
/// is exactly the upper-bound semantics the analytic model needs. This type
/// is a runtime object of one simulation — cache identity stays with the
/// base pattern plus the DynamicTddConfig knobs, never with an overlay.
class DynamicDuplexConfig final : public DuplexConfig {
 public:
  explicit DynamicDuplexConfig(std::shared_ptr<const DuplexConfig> base);

  [[nodiscard]] std::uint16_t dl_mask(SlotIndex slot) const override {
    return base_->dl_mask(slot) | committed(slot).added_dl;
  }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex slot) const override {
    return base_->ul_mask(slot) | committed(slot).added_ul;
  }
  [[nodiscard]] int period_slots() const override { return base_->period_slots(); }
  [[nodiscard]] int control_granularity_symbols() const override {
    return base_->control_granularity_symbols();
  }
  [[nodiscard]] int control_symbols() const override { return base_->control_symbols(); }
  [[nodiscard]] std::string name() const override { return base_->name() + " + dynamic"; }

  /// Commit slot `slot`'s decision. Slots commit in increasing order; gaps
  /// are filled with empty overlays. Throws std::invalid_argument when an
  /// added mask sets a bit outside the 14 symbols (kAllSymbols).
  void commit(SlotIndex slot, DecidedFormat f);
  /// First slot index not yet committed.
  [[nodiscard]] SlotIndex committed_through() const {
    return first_ + static_cast<SlotIndex>(overlay_.size());
  }
  /// The committed decision for `slot` (empty when none).
  [[nodiscard]] DecidedFormat committed(SlotIndex slot) const;
  [[nodiscard]] const DuplexConfig& base() const { return *base_; }

 private:
  std::shared_ptr<const DuplexConfig> base_;
  SlotIndex first_ = 0;                 ///< slot index of overlay_[0]
  std::vector<std::uint32_t> overlay_;  ///< added_dl | added_ul << 16
};

}  // namespace u5g
