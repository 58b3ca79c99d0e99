#pragma once
// Traffic generators for the measurement harnesses.
//
// The §7 demonstration generates packets "uniformly within the pattern" —
// `UniformInPattern` reproduces that: one packet per TDD period at a uniform
// random offset, which is what makes Fig 6's distributions sweep the whole
// protocol geometry. Periodic and Poisson generators support the example
// workloads (industrial control loops, audio frames, background load).

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace u5g {

/// Produces the arrival instants of a workload; the callback generates the
/// packet. All generators stop themselves after `count` arrivals.
class TrafficSource {
 public:
  using Emit = std::function<void(Nanos now, int seq)>;

  virtual ~TrafficSource() = default;
  virtual void start(Simulator& sim, int count, Emit emit) = 0;
};

/// One arrival per `period`, at a fresh uniform offset inside each period —
/// the paper's §7 workload.
class UniformInPattern final : public TrafficSource {
 public:
  UniformInPattern(Nanos period, Rng rng) : period_(period), rng_(rng) {}

  void start(Simulator& sim, int count, Emit emit) override {
    struct State {
      Nanos period;
      Rng rng;
      Emit emit;
      int remaining;
      int seq = 0;
    };
    auto st = std::make_shared<State>(State{period_, rng_, std::move(emit), count});
    schedule_next(sim, st, sim.now());
  }

 private:
  template <typename StatePtr>
  static void schedule_next(Simulator& sim, StatePtr st, Nanos period_start) {
    if (st->remaining <= 0) return;
    const Nanos offset{static_cast<std::int64_t>(
        st->rng.uniform() * static_cast<double>(st->period.count()))};
    sim.schedule_at(period_start + offset, [&sim, st, period_start] {
      st->emit(sim.now(), st->seq++);
      --st->remaining;
      schedule_next(sim, st, period_start + st->period);
    });
  }

  Nanos period_;
  Rng rng_;
};

/// Fixed-rate periodic arrivals (industrial control loops).
class PeriodicTraffic final : public TrafficSource {
 public:
  PeriodicTraffic(Nanos period, Nanos phase = Nanos::zero()) : period_(period), phase_(phase) {}

  void start(Simulator& sim, int count, Emit emit) override {
    auto shared_emit = std::make_shared<Emit>(std::move(emit));
    for (int i = 0; i < count; ++i) {
      const int seq = i;
      sim.schedule_at(phase_ + period_ * i,
                      [&sim, shared_emit, seq] { (*shared_emit)(sim.now(), seq); });
    }
  }

 private:
  Nanos period_;
  Nanos phase_;
};

// ---------------------------------------------------------------------------
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

/// Poisson arrivals with the given mean inter-arrival time.
class PoissonTraffic final : public TrafficSource {
 public:
  PoissonTraffic(Nanos mean_interarrival, Rng rng) : mean_(mean_interarrival), rng_(rng) {}

  void start(Simulator& sim, int count, Emit emit) override {
    struct State {
      Nanos mean;
      Rng rng;
      Emit emit;
      int remaining;
      int seq = 0;
    };
    auto st = std::make_shared<State>(State{mean_, rng_, std::move(emit), count});
    arm(sim, st);
  }

 private:
  template <typename StatePtr>
  static void arm(Simulator& sim, StatePtr st) {
    if (st->remaining <= 0) return;
    const Nanos gap{static_cast<std::int64_t>(
                        st->rng.exponential(static_cast<double>(st->mean.count()))) +
                    1};
    sim.schedule_after(gap, [&sim, st] {
      st->emit(sim.now(), st->seq++);
      --st->remaining;
      arm(sim, st);
    });
  }

  Nanos mean_;
  Rng rng_;
};

}  // namespace u5g
