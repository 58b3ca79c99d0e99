#pragma once
// Duplex configuration abstraction.
//
// Everything the paper's latency analysis needs to know about a 5G duplex
// configuration reduces to one question per slot — "which of its 14 symbols
// can carry downlink, and which can carry uplink?" — answered as two 14-bit
// direction masks, plus the granularity at which scheduling/control
// decisions are made. TDD Common Configuration, Slot Format, Mini-Slot and
// FDD (§2, Fig 1) all implement this interface; the worst-case engine
// (src/core) and the MAC scheduler are written against it, and the
// opportunity scans (tdd/opportunity.hpp) read it one slot word at a time.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/hashing.hpp"
#include "common/time.hpp"
#include "phy/frame_structure.hpp"
#include "phy/numerology.hpp"

namespace u5g {

/// The 14 symbol bits of a slot direction mask (bit k = symbol k).
inline constexpr std::uint16_t kSlotSymbolMask =
    static_cast<std::uint16_t>((1u << kSymbolsPerSlot) - 1u);

/// Both direction masks of one slot.
struct SlotMasks {
  std::uint16_t dl = 0;
  std::uint16_t ul = 0;
};

/// Position of `slot` within a period of `period` slots (also for slot < 0).
[[nodiscard]] inline std::size_t slot_in_period(SlotIndex slot, int period) {
  std::int64_t i = slot % period;
  if (i < 0) i += period;
  return static_cast<std::size_t>(i);
}

class DuplexConfig {
 public:
  virtual ~DuplexConfig() = default;

  [[nodiscard]] Numerology numerology() const { return num_; }
  [[nodiscard]] SlotClock clock() const { return SlotClock{num_}; }

  /// Downlink mask of slot `slot`: bit k is set when symbol k can carry
  /// downlink (FDD: every symbol; TDD: per the pattern; guard symbols:
  /// neither). Bits 14 and up are always zero.
  [[nodiscard]] virtual std::uint16_t dl_mask(SlotIndex slot) const = 0;
  /// Uplink mask of slot `slot`, with the same 14-bit contract.
  [[nodiscard]] virtual std::uint16_t ul_mask(SlotIndex slot) const = 0;

  /// Can symbol `sym` (0..13) of slot `slot` carry downlink transmissions?
  [[nodiscard]] bool dl_capable(SlotIndex slot, int sym) const {
    return (dl_mask(slot) >> sym) & 1u;
  }
  /// Can symbol `sym` (0..13) of slot `slot` carry uplink transmissions?
  [[nodiscard]] bool ul_capable(SlotIndex slot, int sym) const {
    return (ul_mask(slot) >> sym) & 1u;
  }

  /// Period after which the direction map repeats, in slots (>= 1).
  [[nodiscard]] virtual int period_slots() const = 0;

  /// Scheduling / control granularity in symbols: control information goes
  /// out once per granule (§2: "the scheduling task is done just once per
  /// slot"), so data that misses a granule boundary waits for the next.
  /// 14 for slot-based configurations, smaller for Mini-Slot; always >= 1.
  [[nodiscard]] virtual int control_granularity_symbols() const { return kSymbolsPerSlot; }

  /// Symbols of DL control (PDCCH) at the start of each DL-capable granule
  /// (>= 0).
  [[nodiscard]] virtual int control_symbols() const { return 1; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Direction map of one period rendered one char per symbol per slot
  /// ('D', 'U', 'X' for both-capable, '-' for guard), slots separated by '|'.
  /// Regenerates Fig 1's configuration schematics in machine-readable form.
  [[nodiscard]] std::string render_period() const;

  // -- Derived helpers ------------------------------------------------------

  /// Period of the direction map as a duration.
  [[nodiscard]] Nanos period() const {
    return num_.slot_duration() * period_slots();
  }

  // -- Value identity --------------------------------------------------------
  // Everything the latency analysis can observe about a duplex configuration
  // is its numerology, scheduling granularity, control overhead, and the
  // per-slot direction masks over one period. Two configs with identical
  // observables are interchangeable for every worst-case and simulation
  // result, whatever their concrete type or heap address — the canonical
  // identity the feasibility-query cache keys on. (`name()` is
  // presentational and deliberately not part of the identity.)

  /// Append this config's observable value identity to `words`.
  void append_value_words(CanonicalWords& words) const;
  /// How many words append_value_words appends, so callers can reserve.
  [[nodiscard]] std::size_t value_word_count() const;

 protected:
  explicit DuplexConfig(Numerology n) : num_(n) {}
  // Copy/move are protected: concrete configs are value types, but copying
  // through a base pointer (slicing) is prevented.
  DuplexConfig(const DuplexConfig&) = default;
  DuplexConfig& operator=(const DuplexConfig&) = default;

 private:
  Numerology num_;
};

}  // namespace u5g
