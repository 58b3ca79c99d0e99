#pragma once
// Transmission repetition vs HARQ — the Rel-16 URLLC reliability mechanism,
// extending the paper's §6 ("a range of trade-offs to achieve the
// reliability" [50, 54]; [27] "discusses avoiding retransmissions to
// minimize latency").
//
// Two ways to survive a lossy channel:
//   * HARQ: transmit once, wait for feedback, retransmit on NACK — each
//     round costs a feedback delay plus the wait for a fresh opportunity;
//   * repetition (slot/mini-slot aggregation): transmit the same TB in K
//     consecutive windows blindly — no feedback round trips; the receiver
//     decodes at the first success.
//
// This module provides the analytic latency/reliability trade for both over
// a real duplex configuration, plus a Monte-Carlo sampler used by the bench.

#include <cassert>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

/// Effective BLER of HARQ `attempt` (1-based) with soft combining: each
/// retransmission multiplies the residual error probability by
/// `per_attempt_factor` — the geometric-decay abstraction of chase/IR
/// combining gain. The default 0.1 corresponds to ~10 dB effective SNR
/// benefit per combine on a steep BLER curve. Both `first_bler` and
/// `per_attempt_factor` are probabilities/ratios in [0, 1].
[[nodiscard]] inline double effective_bler(double first_bler, int attempt,
                                           double per_attempt_factor = 0.1) {
  assert(first_bler >= 0.0 && first_bler <= 1.0);
  assert(per_attempt_factor >= 0.0 && per_attempt_factor <= 1.0);
  double b = first_bler;
  for (int i = 1; i < attempt; ++i) b *= per_attempt_factor;
  return b;
}

struct ReliabilitySchemeParams {
  double per_tx_bler = 0.1;          ///< first-transmission block error rate
  double combining_factor = 0.1;     ///< per-extra-attempt BLER multiplier (soft combining)
  int max_attempts = 4;              ///< HARQ budget / repetition factor K
  int tx_symbols = 2;
  Nanos harq_feedback_delay{500'000};
};

/// Outcome of one packet under a scheme.
struct SchemeOutcome {
  bool delivered = false;
  Nanos completion{};  ///< time the decode succeeded (if delivered)
  int attempts = 0;
};

/// One packet under HARQ: attempt -> feedback -> next opportunity -> ...
[[nodiscard]] SchemeOutcome harq_outcome(const DuplexConfig& cfg, Nanos arrival,
                                         const ReliabilitySchemeParams& p, Rng& rng);

/// One packet under K-repetition: K back-to-back windows, decode at first
/// success (soft combining lowers each leg's BLER).
[[nodiscard]] SchemeOutcome repetition_outcome(const DuplexConfig& cfg, Nanos arrival,
                                               const ReliabilitySchemeParams& p, Rng& rng);

/// Residual loss probability of each scheme (same combining model).
[[nodiscard]] double residual_loss(const ReliabilitySchemeParams& p);

}  // namespace u5g
