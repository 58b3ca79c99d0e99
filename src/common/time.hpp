#pragma once
// Strong nanosecond time type used across the simulator.
//
// All protocol timing (slot boundaries, symbol durations, TDD periods) is
// integer nanosecond arithmetic derived from the 5G numerology; floating
// point never defines a boundary, so two modules computing "start of slot n"
// always agree bit-for-bit.

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace u5g {

/// A signed duration / point on the simulated clock, in nanoseconds.
///
/// `Nanos` is used both as a duration and as a time point (the simulation
/// epoch is 0). Arithmetic is closed over the type; division by a plain
/// integer scales, division by another `Nanos` yields a dimensionless count.
class Nanos {
 public:
  constexpr Nanos() = default;
  constexpr explicit Nanos(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t count() const { return ns_; }

  /// Value in (possibly fractional) microseconds — for reporting only.
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  /// Value in (possibly fractional) milliseconds — for reporting only.
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }

  static constexpr Nanos zero() { return Nanos{0}; }
  static constexpr Nanos max() { return Nanos{std::numeric_limits<std::int64_t>::max()}; }

  friend constexpr Nanos operator+(Nanos a, Nanos b) { return Nanos{a.ns_ + b.ns_}; }
  friend constexpr Nanos operator-(Nanos a, Nanos b) { return Nanos{a.ns_ - b.ns_}; }
  friend constexpr Nanos operator*(Nanos a, std::int64_t k) { return Nanos{a.ns_ * k}; }
  friend constexpr Nanos operator*(std::int64_t k, Nanos a) { return Nanos{k * a.ns_}; }
  friend constexpr Nanos operator/(Nanos a, std::int64_t k) { return Nanos{a.ns_ / k}; }
  /// Dimensionless ratio, truncated toward zero.
  friend constexpr std::int64_t operator/(Nanos a, Nanos b) { return a.ns_ / b.ns_; }
  friend constexpr Nanos operator%(Nanos a, Nanos b) { return Nanos{a.ns_ % b.ns_}; }

  constexpr Nanos& operator+=(Nanos o) { ns_ += o.ns_; return *this; }
  constexpr Nanos& operator-=(Nanos o) { ns_ -= o.ns_; return *this; }

  friend constexpr auto operator<=>(Nanos, Nanos) = default;

 private:
  std::int64_t ns_ = 0;
};

namespace literals {
constexpr Nanos operator""_us(unsigned long long v) { return Nanos{static_cast<std::int64_t>(v) * 1'000}; }
constexpr Nanos operator""_ms(unsigned long long v) { return Nanos{static_cast<std::int64_t>(v) * 1'000'000}; }
}  // namespace literals

/// Nanos from a floating-point microsecond count (rounds to nearest ns).
[[nodiscard]] constexpr Nanos from_us(double us) {
  return Nanos{static_cast<std::int64_t>(us * 1e3 + (us >= 0 ? 0.5 : -0.5))};
}

/// First multiple of `step` (relative to phase `origin`) at or after `t`.
/// Precondition: step > 0.
[[nodiscard]] constexpr Nanos align_up(Nanos t, Nanos step, Nanos origin = Nanos::zero()) {
  const std::int64_t rel = (t - origin).count();
  const std::int64_t s = step.count();
  std::int64_t k = rel / s;               // truncates toward zero
  if (k * s < rel) ++k;                   // bump to ceiling when not exact
  return origin + Nanos{k * s};
}

/// Largest multiple of `step` (relative to phase `origin`) at or before `t`.
[[nodiscard]] constexpr Nanos align_down(Nanos t, Nanos step, Nanos origin = Nanos::zero()) {
  const std::int64_t rel = (t - origin).count();
  const std::int64_t s = step.count();
  std::int64_t k = rel / s;
  if (k * s > rel) --k;                   // floor for negative rel
  return origin + Nanos{k * s};
}

/// Human-readable rendering: picks ns / µs / ms / s scale.
[[nodiscard]] std::string to_string(Nanos t);

}  // namespace u5g
