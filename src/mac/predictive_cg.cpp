#include "mac/predictive_cg.hpp"

#include <cmath>

namespace u5g {

void ArrivalPredictor::observe(Nanos arrival) {
  if (count_ > 0) {
    const auto gap = static_cast<double>((arrival - last_).count());
    if (period_ <= 0.0) {
      period_ = gap;
    } else {
      // Prediction error against the running model, before updating it.
      const double err = std::abs(gap - period_);
      jitter_rms_ = jitter_rms_ <= 0.0 ? err : (1 - alpha_) * jitter_rms_ + alpha_ * err;
      period_ = (1 - alpha_) * period_ + alpha_ * gap;
    }
  }
  last_ = arrival;
  ++count_;
}

std::optional<Nanos> ArrivalPredictor::predict_next() const {
  if (!warmed_up() || period_ <= 0.0) return std::nullopt;
  return last_ + from_double(period_);
}

std::optional<UlGrant> PredictiveConfiguredGrant::plan_next_occasion(const DuplexConfig& cfg,
                                                                     Nanos now) const {
  const auto predicted = predictor_.predict_next();
  if (!predicted) return std::nullopt;
  // The data reaches the MAC stack_lead after the application produces it.
  // The occasion must open a jitter margin *late*: an occasion that starts
  // before the data is ready is wasted, so aim past the plausible lateness
  // of the arrival. Early arrivals are still served (they just wait).
  const Nanos margin = Nanos{static_cast<std::int64_t>(
      margin_factor_ * static_cast<double>(predictor_.jitter_estimate().count()))};
  Nanos target = *predicted + stack_lead_ + margin;
  if (target < now) target = now;
  const auto w = next_ul_tx(cfg, target, tx_symbols_);
  if (!w) return std::nullopt;
  return UlGrant{ue_, w->start, w->end, tb_bytes_, HarqId{0}, true};
}

}  // namespace u5g
