#pragma once
// NR-U Listen-Before-Talk channel access (the ROADMAP's nru_lbt port).
//
// On unlicensed spectrum the gNB does not own the slot grid: every data
// transmission must first win a CAT4 clear-channel assessment (TS 37.213
// §4.1/§4.2 shape) — an initial defer period of idle channel, then a random
// backoff counter drawn uniformly from [0, CW] that counts down one
// energy-detect slot at a time and FREEZES whenever the channel is sensed
// busy, re-deferring before the countdown resumes. The contention window
// doubles when the HARQ NACK ratio of the reference window crosses a
// threshold (collisions look like NACK bursts) and resets to CW_min
// otherwise; energy detection gates what "busy" means — an interfering
// burst below the ED threshold is invisible to the sensor and can collide
// with the transmission instead (the hidden-interferer loss).
//
// Contention comes from a deterministic modeled Wi-Fi load process: a
// renewal sequence of busy/idle intervals with exponential durations, each
// busy interval carrying an energy level drawn uniformly in
// [wifi_energy_min_dbm, wifi_energy_max_dbm]. The process is generated
// lazily and pruned behind the (monotone) simulation watermark, so memory
// stays bounded over long horizons.
//
// Determinism hygiene (same contract as src/fault): the gate owns dedicated
// SplitMix64-salted streams forked from (seed ^ salt) — never the main
// simulation stream — and an E2eSystem with `LbtConfig::enabled == false`
// never constructs or consults a gate at all, so disabled runs stay bitwise
// identical to pre-LBT builds. Every LbtConfig field participates in
// `StackConfig::append_canonical_words`, so the feasibility cache can never
// serve a licensed-band verdict for an NR-U query.
//
// Short control signalling (SR, PDCCH grants, HARQ feedback) is exempt from
// LBT in this model, mirroring the ETSI short-control-signalling allowance;
// only data transport blocks pay the deferral.

#include <cstdint>
#include <deque>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace u5g {

/// Channel-access knobs, carried inside StackConfig. Defaults model the
/// highest-priority LBT class (URLLC-ish: smallest defer and CW bounds);
/// `enabled == false` is licensed spectrum — no gate exists at all.
struct LbtConfig {
  bool enabled = false;

  // -- CAT4 access engine ----------------------------------------------------
  int cw_min = 3;            ///< initial / reset contention window (ED slots)
  int cw_max = 7;            ///< doubling cap (priority class 1: 7)
  Nanos defer{25'000};       ///< initial defer: 16 µs + m_p x 9 µs (m_p = 1)
  Nanos ed_slot{9'000};      ///< one energy-detect observation slot

  // -- Energy-detect gating --------------------------------------------------
  double ed_threshold_dbm = -72.0;   ///< busy only if interferer energy >= this
  double wifi_energy_min_dbm = -75.0;
  double wifi_energy_max_dbm = -45.0;
  /// A transmission overlapping a *hidden* (below-ED) busy interval is lost
  /// with this probability — the collision the sensor could not prevent.
  double hidden_collision_loss = 1.0;

  // -- CWS update from HARQ feedback -----------------------------------------
  double nack_ratio_threshold = 0.8;  ///< double CW when window ratio >= this
  int min_feedback = 4;               ///< observations before the ratio counts

  // -- Modeled Wi-Fi load (renewal process) ----------------------------------
  Nanos wifi_busy_mean{};            ///< 0 = clear channel (NR-U alone)
  Nanos wifi_idle_mean{1'000'000};   ///< mean gap between busy intervals

  // -- Gap mode --------------------------------------------------------------
  /// Enforced idle gap after each NR-U burst before the next access attempt
  /// may start (the coexistence-friendly duty-cycle axis of the bench).
  Nanos tx_gap{};
};

/// One cell's channel-access gate: the CAT4 state machine plus the Wi-Fi
/// occupancy process it senses. The e2e system consults it once per data
/// transport block (UL and DL share the cell's channel), at the block's
/// nominal air-window start; calls must be made in non-decreasing watermark
/// (simulation-time) order, which a discrete-event drain guarantees.
class LbtGate {
 public:
  LbtGate(const LbtConfig& cfg, std::uint64_t seed);

  /// Result of one channel-access attempt.
  struct Access {
    Nanos start{};     ///< granted burst start (>= wanted)
    Nanos deferral{};  ///< start - wanted: the fourth latency category
    bool collided = false;  ///< burst overlapped hidden interference and lost
  };

  /// Run one CAT4 attempt for a burst of `duration` nominally starting at
  /// `wanted`. `watermark` is the current simulation time (monotone across
  /// calls; used to prune exhausted Wi-Fi intervals). Registers the granted
  /// burst's airtime/overlap and arms the post-burst gap.
  Access acquire(Nanos wanted, Nanos duration, Nanos watermark);

  /// HARQ outcome of a transmission that went through this gate; feeds the
  /// contention-window update evaluated at the next acquire().
  void on_harq_feedback(bool nack);

  /// Current contention window (ED slots).
  [[nodiscard]] int cw() const { return cw_; }

  struct Stats {
    std::uint64_t attempts = 0;        ///< acquire() calls
    std::uint64_t deferred = 0;        ///< attempts with non-zero deferral
    Nanos deferral_total{};            ///< summed channel-access time
    std::uint64_t cw_doublings = 0;
    std::uint64_t cw_resets = 0;       ///< evaluations that returned to cw_min
    std::uint64_t hidden_collisions = 0;
    Nanos nru_airtime{};               ///< granted burst time on the channel
    Nanos wifi_overlap{};              ///< burst time overlapping Wi-Fi busy time
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Actual Wi-Fi busy time (sensed or hidden) in [0, horizon) — the
  /// coexistence bench's airtime denominator. Extends the modeled process
  /// forward as needed; intended for post-run accounting.
  [[nodiscard]] Nanos wifi_busy_until(Nanos horizon);

 private:
  struct Interval {
    Nanos start{};
    Nanos end{};
    bool sensed = false;  ///< energy >= ED threshold: visible to CCA
  };

  void extend_until(Nanos t);
  void prune_before(Nanos t);
  /// First *sensed* interval overlapping [a, b), if any; returns its end.
  bool sensed_busy_in(Nanos a, Nanos b, Nanos& busy_end);
  /// Busy time (sensed or hidden) overlapping [a, b), generating as needed.
  Nanos busy_overlap(Nanos a, Nanos b);
  void update_cw();

  LbtConfig cfg_;
  Rng backoff_rng_;    ///< backoff draws + hidden-collision coin
  Rng wifi_rng_;       ///< Wi-Fi interval durations + energies
  std::deque<Interval> wifi_;
  Nanos wifi_frontier_{};     ///< process generated up to here
  Nanos wifi_busy_gen_{};     ///< total busy time of all generated intervals
  Nanos next_access_{};       ///< burst serialisation + tx_gap enforcement
  int cw_ = 0;
  std::uint64_t fb_nacks_ = 0;
  std::uint64_t fb_total_ = 0;
  Stats stats_;
};

}  // namespace u5g
