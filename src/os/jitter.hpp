#pragma once
// OS-scheduling jitter model (§6).
//
// Software 5G stacks run on general-purpose operating systems whose
// scheduler occasionally preempts the radio thread. The paper's Fig 5 shows
// the result: a linear baseline with spikes, "due to delays in the OS
// scheduling of the sample submission process". We model jitter as a
// mixture: always-on small noise (cache misses, timer slack) plus a rare
// heavy preemption spike. A real-time kernel bounds the spike, it does not
// remove the noise — exactly the §6 mitigation.

#include <algorithm>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace u5g {

/// Parameters of the two-component jitter mixture.
struct JitterParams {
  Nanos noise_mean{3'000};       ///< always-on noise mean (lognormal)
  Nanos noise_std{2'000};
  double spike_prob = 0.02;      ///< probability a call hits a preemption
  Nanos spike_mean{60'000};      ///< preemption spike mean (exponential tail)
  Nanos spike_cap{400'000};      ///< hard cap (watchdog / priority boost)

  /// Generic desktop kernel: rare but large spikes — the Fig 5 regime.
  static JitterParams generic_kernel() { return {}; }

  /// PREEMPT_RT kernel: spikes are rarer and bounded to tens of µs.
  static JitterParams realtime_kernel() {
    return {Nanos{2'000}, Nanos{1'200}, 0.004, Nanos{12'000}, Nanos{30'000}};
  }

  /// No jitter at all — the idealised stack used by pure-protocol analyses.
  static JitterParams none() {
    return {Nanos::zero(), Nanos::zero(), 0.0, Nanos::zero(), Nanos::zero()};
  }
};

/// Draws one jitter value per call.
class OsJitterModel {
 public:
  OsJitterModel(JitterParams p, Rng rng) : p_(p), rng_(rng) {
    if (p_.noise_mean > Nanos::zero()) {
      noise_ = LognormalParams::from_mean_std(static_cast<double>(p_.noise_mean.count()),
                                              static_cast<double>(p_.noise_std.count()));
    }
  }

  /// One draw of added delay (>= 0).
  [[nodiscard]] Nanos sample() {
    std::int64_t ns = 0;
    if (p_.noise_mean > Nanos::zero()) ns += static_cast<std::int64_t>(noise_.sample(rng_));
    if (p_.spike_prob > 0.0 && rng_.bernoulli(p_.spike_prob)) {
      auto spike = static_cast<std::int64_t>(
          rng_.exponential(static_cast<double>(p_.spike_mean.count())));
      spike = std::min(spike, p_.spike_cap.count());
      ns += spike;
    }
    return Nanos{ns};
  }


 private:
  JitterParams p_;
  Rng rng_;
  LognormalParams noise_{};
};

}  // namespace u5g
