#pragma once
// Wireless channel model: propagation delay plus a block-error process.
//
// The paper's reliability discussion (§6) splits loss into (1) channel
// unpredictability and (2) deadline violations from non-deterministic
// latency. This module provides (1): an SNR-to-BLER curve per MCS and the
// mmWave blockage process that produces the 4.4 %-of-packets-sub-ms result
// the paper cites for FR2 [19].

#include "common/rng.hpp"
#include "common/time.hpp"
#include "phy/modulation.hpp"
#include "phy/numerology.hpp"

namespace u5g {

/// AWGN-flavoured link model: BLER as a logistic function of the SNR gap to
/// the MCS decoding threshold. The threshold grows with spectral efficiency
/// (Shannon-gap rule of thumb), the slope models coding steepness.
class LinkModel {
 public:
  explicit LinkModel(double snr_db, double slope_db = 0.8) : snr_db_(snr_db), slope_db_(slope_db) {}

  /// Decoding threshold for an MCS: SNR needed for ~50 % BLER.
  [[nodiscard]] static double threshold_db(const McsEntry& mcs);

  /// Block error probability at the current SNR.
  [[nodiscard]] double bler(const McsEntry& mcs) const;

  /// Draw one transmission outcome. true = decoded.
  [[nodiscard]] bool transmit_ok(const McsEntry& mcs, Rng& rng) const {
    return !rng.bernoulli(bler(mcs));
  }

 private:
  double snr_db_;
  double slope_db_;
};

/// FR2 (mmWave) blockage process: alternates line-of-sight and blocked
/// periods; while blocked, transmissions fail. Calibrated so that the
/// fraction of time with a usable sub-ms link is small — reproducing the
/// paper's argument that FR2 cannot carry URLLC reliability.
class MmWaveBlockage {
 public:
  struct Params {
    Nanos mean_los{400'000'000};        ///< mean line-of-sight dwell (400 ms)
    Nanos mean_blocked{150'000'000};    ///< mean blockage dwell (150 ms)
    double blocked_loss_prob = 0.98;    ///< loss probability while blocked
  };

  MmWaveBlockage(Params p, Rng rng) : p_(p), rng_(rng) { schedule_toggle(Nanos::zero()); }

  /// Advance the two-state process to `now` and report whether blocked.
  [[nodiscard]] bool blocked_at(Nanos now);

  /// Loss draw for a transmission at `now`.
  [[nodiscard]] bool transmit_ok(Nanos now) {
    if (!blocked_at(now)) return true;
    return !rng_.bernoulli(p_.blocked_loss_prob);
  }

  /// Long-run fraction of time in line-of-sight.
  [[nodiscard]] double los_fraction() const {
    const double l = static_cast<double>(p_.mean_los.count());
    const double b = static_cast<double>(p_.mean_blocked.count());
    return l / (l + b);
  }

 private:
  void schedule_toggle(Nanos from);

  Params p_;
  Rng rng_;
  bool blocked_ = false;
  Nanos next_toggle_{0};
};

}  // namespace u5g
