#pragma once
// Predictive configured grants — §9's second open problem, implemented:
// "Another research problem is how to predict and schedule uplink data
// arrivals for URLLC applications to efficiently pre-allocate resources,
// eliminate delays incurred in requesting, and improve scalability."
//
// URLLC traffic (control loops, audio frames) is largely periodic. The
// predictor estimates the period and phase of a UE's arrivals online and
// plans ONE just-in-time occasion per predicted arrival, instead of blanket
// per-slot pre-allocation — cutting the §9 waste by orders of magnitude
// while keeping grant-free latency.

#include <cstdint>
#include <optional>

#include "common/time.hpp"
#include "mac/grant.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

/// Online estimator of a (quasi-)periodic arrival process: exponentially
/// weighted estimates of the period and of the phase error, robust to
/// bounded jitter. Needs at least `min_observations` arrivals to predict.
class ArrivalPredictor {
 public:
  explicit ArrivalPredictor(double ewma_alpha = 0.25, int min_observations = 3)
      : alpha_(ewma_alpha), min_obs_(min_observations) {}

  /// Record an arrival (timestamps must be non-decreasing).
  void observe(Nanos arrival);

  /// Predicted time of the next arrival, or nullopt before warm-up.
  [[nodiscard]] std::optional<Nanos> predict_next() const;

  /// Current period estimate (0 before warm-up).
  [[nodiscard]] Nanos period_estimate() const { return from_double(period_); }
  /// RMS prediction error estimate — how much margin an allocation needs.
  [[nodiscard]] Nanos jitter_estimate() const { return from_double(jitter_rms_); }
  [[nodiscard]] int observations() const { return count_; }
  [[nodiscard]] bool warmed_up() const { return count_ >= min_obs_; }

 private:
  static Nanos from_double(double ns) { return Nanos{static_cast<std::int64_t>(ns)}; }

  double alpha_;
  int min_obs_;
  int count_ = 0;
  Nanos last_{};
  double period_ = 0.0;      ///< EWMA of inter-arrival times (ns)
  double jitter_rms_ = 0.0;  ///< EWMA of |prediction error| (ns)
};

/// Plans just-in-time occasions from the predictor's output.
class PredictiveConfiguredGrant {
 public:
  PredictiveConfiguredGrant(UeId ue, int tx_symbols, std::size_t tb_bytes,
                            Nanos stack_lead, double jitter_margin_factor = 3.0)
      : ue_(ue),
        tx_symbols_(tx_symbols),
        tb_bytes_(tb_bytes),
        stack_lead_(stack_lead),
        margin_factor_(jitter_margin_factor) {}

  void observe_arrival(Nanos t) { predictor_.observe(t); }
  [[nodiscard]] const ArrivalPredictor& predictor() const { return predictor_; }

  /// One occasion for the next predicted arrival: the first UL window that
  /// starts at or after (predicted arrival + stack lead − jitter margin)...
  /// but never before `now`. Returns nullopt before warm-up (callers fall
  /// back to static allocation or SR).
  [[nodiscard]] std::optional<UlGrant> plan_next_occasion(const DuplexConfig& cfg,
                                                          Nanos now) const;

 private:
  UeId ue_;
  int tx_symbols_;
  std::size_t tb_bytes_;
  Nanos stack_lead_;
  double margin_factor_;
  ArrivalPredictor predictor_;
};

}  // namespace u5g
