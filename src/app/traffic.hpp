#pragma once
// Aggregate (batched) arrival processes.
//
// The city-scale population engine (mac/ue_population.hpp) does not schedule
// one event per background packet — at 10^6 UEs that alone would dwarf the
// tracked-UE simulation. Instead it draws the *count* of arrivals per slot
// from the aggregate process and distributes the count over the UE rows.
// Poisson superposition makes this exact: the sum of n independent Poisson
// streams of rate λ is one Poisson stream of rate nλ, so one batched draw
// per slot is statistically identical to n per-UE draws (test_population.cpp
// pins the equivalence against the explicit per-UE path).

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace u5g {

/// One Poisson(mean) count. Knuth's product method below `kExactMeanCap`
/// (exact, O(mean) uniforms); above it a moment-matched rounded normal
/// (the error is < the Monte-Carlo noise of any run that large, and the
/// draw stays O(1) so a 100k-UE cell costs the same as a 1k-UE cell).
/// `limit` must be std::exp(-mean), the product method's stopping bound:
/// a caller with a fixed mean computes it once.
[[nodiscard]] inline int poisson_count(Rng& rng, double mean, double limit) {
  constexpr double kExactMeanCap = 64.0;
  if (mean <= 0.0) return 0;
  if (mean <= kExactMeanCap) {
    int k = 0;
    double prod = rng.uniform();
    while (prod > limit) {
      ++k;
      prod *= rng.uniform();
    }
    return k;
  }
  const double draw = rng.normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<int>(draw + 0.5);
}

/// Deterministic periodic aggregate: `n` sources with period `period_slots`,
/// source i phased at i % period_slots. Returns how many fire in slot `slot`
/// (every source exactly once per period; phases are spread round-robin).
[[nodiscard]] constexpr int periodic_count(std::uint64_t slot, int n, int period_slots) {
  if (n <= 0 || period_slots <= 0) return 0;
  const int phase = static_cast<int>(slot % static_cast<std::uint64_t>(period_slots));
  return n / period_slots + (phase < n % period_slots ? 1 : 0);
}

}  // namespace u5g
