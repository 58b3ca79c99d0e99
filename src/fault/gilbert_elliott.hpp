#pragma once
// Gilbert–Elliott bursty-loss channel process.
//
// The i.i.d. per-transmission loss in `StackConfig::channel_loss` is the
// error process URLLC analyses like to assume; measurements (the paper's §6,
// Popovski et al. "Wireless Access for URLLC") show real radio failures
// cluster — fading dwells, interference bursts, blockage — and it is exactly
// that clustering that defeats HARQ: a retransmission scheduled one slot
// after a loss lands in the same bad state the first attempt died in.
//
// The model is the classic two-state Markov chain stepped once per
// transmission: a Good state with loss probability `p_good_loss` and a Bad
// state with `p_bad_loss`, with geometric dwell times set by the transition
// probabilities. The i.i.d. process is the degenerate single-state case
// (`p_good_to_bad == 0`, `p_good_loss == loss`), which `Params::iid`
// constructs — distributionally identical to a plain Bernoulli draw per
// transmission.

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace u5g {

class GilbertElliott {
 public:
  struct Params {
    double p_good_loss = 0.0;     ///< loss probability in the Good state
    double p_bad_loss = 0.5;      ///< loss probability in the Bad state
    double p_good_to_bad = 0.01;  ///< per-transmission Good -> Bad transition
    double p_bad_to_good = 0.2;   ///< per-transmission Bad -> Good (1/mean burst)

    /// Degenerate single-state chain == i.i.d. Bernoulli(loss).
    static Params iid(double loss) { return {loss, loss, 0.0, 1.0}; }

    /// Bursty process with a target *average* loss: bursts of mean length
    /// `mean_burst_tx` transmissions at `bad_loss`, loss-free in between,
    /// with the Good->Bad rate chosen so the stationary average equals
    /// `avg_loss`. This is the matched-BLER comparison point for bench_fault.
    static Params matched_average(double avg_loss, double mean_burst_tx = 8.0,
                                  double bad_loss = 0.75) {
      if (!(avg_loss >= 0.0) || avg_loss >= bad_loss) {
        throw std::invalid_argument{"GilbertElliott: need 0 <= avg_loss < bad_loss"};
      }
      const double pi_bad = avg_loss / bad_loss;  // required stationary P(Bad)
      const double p_bg = 1.0 / std::max(mean_burst_tx, 1.0);
      // pi_bad = p_gb / (p_gb + p_bg)  =>  p_gb = pi_bad/(1-pi_bad) * p_bg
      const double p_gb = pi_bad >= 1.0 ? 1.0 : pi_bad / (1.0 - pi_bad) * p_bg;
      return {0.0, bad_loss, std::min(p_gb, 1.0), p_bg};
    }

    /// Stationary probability of the Bad state.
    [[nodiscard]] double stationary_bad() const {
      const double denom = p_good_to_bad + p_bad_to_good;
      return denom <= 0.0 ? 0.0 : p_good_to_bad / denom;
    }

    /// Long-run average per-transmission loss probability.
    [[nodiscard]] double average_loss() const {
      const double pb = stationary_bad();
      return (1.0 - pb) * p_good_loss + pb * p_bad_loss;
    }

    [[nodiscard]] bool valid() const {
      const auto in01 = [](double p) { return p >= 0.0 && p <= 1.0; };
      return in01(p_good_loss) && in01(p_bad_loss) && in01(p_good_to_bad) &&
             in01(p_bad_to_good);
    }
  };

  explicit GilbertElliott(Params p) : p_(p) {
    if (!p_.valid()) throw std::invalid_argument{"GilbertElliott: probabilities must be in [0,1]"};
  }

  /// One transmission through the channel: draw the loss outcome from the
  /// current state, then step the chain. Exactly two uniform draws per call
  /// (loss, transition) regardless of state, so the stream stays aligned for
  /// replay/differential runs.
  [[nodiscard]] bool transmit_lost(Rng& rng) {
    const bool lost = rng.bernoulli(bad_ ? p_.p_bad_loss : p_.p_good_loss);
    const double flip = bad_ ? p_.p_bad_to_good : p_.p_good_to_bad;
    if (rng.bernoulli(flip)) bad_ = !bad_;
    return lost;
  }

  [[nodiscard]] bool in_bad_state() const { return bad_; }

 private:
  Params p_;
  bool bad_ = false;
};

}  // namespace u5g
