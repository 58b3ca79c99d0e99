#pragma once
// 5G NR numerology arithmetic (TS 38.211 §4).
//
// The numerology µ fixes the subcarrier spacing (15 kHz · 2^µ) and therefore
// the slot duration (1 ms / 2^µ). Every timing quantity in the system —
// symbol boundaries, TDD periods, scheduling opportunities — derives from it.
// This is the paper's first latency lever (§2): "higher numerologies are key
// enablers for low-latency communication in 5G."

#include <array>
#include <cstdint>
#include <stdexcept>

#include "common/time.hpp"

namespace u5g {

inline constexpr int kSymbolsPerSlot = 14;   // normal cyclic prefix
inline constexpr int kSubcarriersPerRb = 12;

/// A 5G numerology µ in [0, 6].
///
/// Validity per the paper (§2): µ0–µ2 are FR1, µ2–µ6 are FR2. The slot
/// duration is exactly 1 ms / 2^µ and symbols divide the slot uniformly —
/// we model the normal-CP symbol-length variation (first symbol slightly
/// longer) as uniform, which shifts intra-slot boundaries by < 1 µs and
/// does not affect any slot-level conclusion.
class Numerology {
 public:
  constexpr explicit Numerology(int mu) : mu_(mu) {
    if (mu < 0 || mu > 6) throw std::invalid_argument{"Numerology: mu out of [0,6]"};
  }

  [[nodiscard]] constexpr int mu() const { return mu_; }
  [[nodiscard]] constexpr Nanos slot_duration() const { return Nanos{1'000'000 >> mu_}; }
  [[nodiscard]] constexpr Nanos symbol_duration() const {
    return Nanos{slot_duration().count() / kSymbolsPerSlot};
  }

  friend constexpr auto operator<=>(Numerology, Numerology) = default;

 private:
  int mu_;
};

inline constexpr Numerology kMu0{0};  // 15 kHz,  1 ms slots
inline constexpr Numerology kMu1{1};  // 30 kHz,  0.5 ms slots
inline constexpr Numerology kMu2{2};  // 60 kHz,  0.25 ms slots (FR1 floor, §5)
inline constexpr Numerology kMu3{3};  // 120 kHz
inline constexpr Numerology kMu4{4};  // 240 kHz
inline constexpr Numerology kMu5{5};  // 480 kHz
inline constexpr Numerology kMu6{6};  // 960 kHz, 15.625 µs slots (paper §1, FR2)

/// All numerologies valid in `fr`, ascending µ.
[[nodiscard]] inline std::array<Numerology, 5> numerologies_in_fr2() {
  return {kMu2, kMu3, kMu4, kMu5, kMu6};
}
[[nodiscard]] inline std::array<Numerology, 3> numerologies_in_fr1() {
  return {kMu0, kMu1, kMu2};
}

}  // namespace u5g
