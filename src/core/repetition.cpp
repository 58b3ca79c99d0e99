#include "core/repetition.hpp"

namespace u5g {

double residual_loss(const ReliabilitySchemeParams& p) {
  // P(all attempts fail): each attempt a fails with the soft-combined BLER
  // effective_bler(p, a), conditioned on the previous failures (which is how
  // the Monte-Carlo sampler draws them too). Both schemes share this figure:
  // repetition is HARQ with zero feedback delay, reliability-wise.
  double loss = 1.0;
  for (int attempt = 1; attempt <= p.max_attempts; ++attempt) {
    loss *= std::min(1.0, effective_bler(p.per_tx_bler, attempt, p.combining_factor));
  }
  return loss;
}

namespace {

/// Draw whether attempt `attempt` (1-based) fails, given all previous failed.
bool attempt_fails(const ReliabilitySchemeParams& p, int attempt, Rng& rng) {
  const double bler = std::min(1.0, effective_bler(p.per_tx_bler, attempt, p.combining_factor));
  return rng.bernoulli(bler);
}

}  // namespace

SchemeOutcome harq_outcome(const DuplexConfig& cfg, Nanos arrival,
                           const ReliabilitySchemeParams& p, Rng& rng) {
  SchemeOutcome out;
  Nanos t = arrival;
  for (int attempt = 1; attempt <= p.max_attempts; ++attempt) {
    const auto w = next_ul_tx(cfg, t, p.tx_symbols);
    if (!w) return out;
    out.attempts = attempt;
    if (!attempt_fails(p, attempt, rng)) {
      out.delivered = true;
      out.completion = w->end;
      return out;
    }
    // NACK arrives a feedback delay after the transmission ends; the next
    // attempt needs a fresh opportunity after that.
    t = w->end + p.harq_feedback_delay;
  }
  return out;
}

SchemeOutcome repetition_outcome(const DuplexConfig& cfg, Nanos arrival,
                                 const ReliabilitySchemeParams& p, Rng& rng) {
  SchemeOutcome out;
  Nanos from = arrival;
  for (int rep = 1; rep <= p.max_attempts; ++rep) {
    const auto w = next_ul_tx(cfg, from, p.tx_symbols);
    if (!w) return out;
    out.attempts = rep;
    if (!attempt_fails(p, rep, rng)) {
      out.delivered = true;
      out.completion = w->end;  // decoded at the first successful leg
      return out;
    }
    from = w->end;  // next leg immediately (blind repetition, no feedback)
  }
  return out;
}

}  // namespace u5g
