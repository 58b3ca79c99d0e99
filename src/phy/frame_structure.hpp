#pragma once
// Slot/symbol clock: bidirectional mapping between the simulated time axis
// and NR slot and symbol indices.

#include <cstdint>

#include "common/time.hpp"
#include "phy/numerology.hpp"

namespace u5g {

/// Absolute slot index since the simulation epoch (slot 0 starts at t=0).
using SlotIndex = std::int64_t;

/// Pure arithmetic over one numerology's grid. All results are exact
/// (integer ns); `slot_duration` divides 1 ms for every µ.
class SlotClock {
 public:
  constexpr explicit SlotClock(Numerology num) : num_(num) {}

  [[nodiscard]] constexpr Nanos slot_duration() const { return num_.slot_duration(); }
  [[nodiscard]] constexpr Nanos symbol_duration() const { return num_.symbol_duration(); }

  /// Slot containing time `t` (floor).
  [[nodiscard]] constexpr SlotIndex slot_at(Nanos t) const {
    const std::int64_t d = slot_duration().count();
    std::int64_t k = t.count() / d;
    if (k * d > t.count()) --k;
    return k;
  }

  [[nodiscard]] constexpr Nanos slot_start(SlotIndex s) const {
    return Nanos{s * slot_duration().count()};
  }
  [[nodiscard]] constexpr Nanos slot_end(SlotIndex s) const { return slot_start(s + 1); }

  /// Start of symbol `sym` (0-based) within slot `s`. The nominal grid places
  /// symbol k at k/14 of the slot; remainder nanoseconds accrue to the last
  /// symbol (documented simplification, < 1 µs at any µ).
  [[nodiscard]] constexpr Nanos symbol_start(SlotIndex s, int sym) const {
    return slot_start(s) + Nanos{sym * symbol_duration().count()};
  }

  /// First slot boundary at or after `t`.
  [[nodiscard]] constexpr Nanos next_slot_boundary(Nanos t) const {
    return align_up(t, slot_duration());
  }

  /// Symbol index within the slot containing `t`, clamped to [0, 13].
  [[nodiscard]] constexpr int symbol_at(Nanos t) const {
    const Nanos in_slot = t - slot_start(slot_at(t));
    const int sym = static_cast<int>(in_slot / symbol_duration());
    return sym > kSymbolsPerSlot - 1 ? kSymbolsPerSlot - 1 : sym;
  }
 private:
  Numerology num_;
};

}  // namespace u5g
