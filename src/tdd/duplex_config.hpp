#pragma once
// Duplex configuration abstraction.
//
// Everything the paper's latency analysis needs to know about a 5G duplex
// configuration reduces to two questions at symbol granularity — "can this
// symbol carry downlink?" and "can this symbol carry uplink?" — plus the
// granularity at which scheduling/control decisions are made. TDD Common
// Configuration, Slot Format, Mini-Slot and FDD (§2, Fig 1) all implement
// this interface; the worst-case engine (src/core) and the MAC scheduler
// are written against it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/hashing.hpp"
#include "common/time.hpp"
#include "phy/frame_structure.hpp"
#include "phy/numerology.hpp"

namespace u5g {

class DuplexConfig {
 public:
  virtual ~DuplexConfig() = default;

  [[nodiscard]] Numerology numerology() const { return num_; }
  [[nodiscard]] SlotClock clock() const { return SlotClock{num_}; }

  /// Can symbol `sym` of slot `slot` carry downlink transmissions?
  /// (FDD: every symbol; TDD: per the pattern; guard symbols: neither.)
  [[nodiscard]] virtual bool dl_capable(SlotIndex slot, int sym) const = 0;
  /// Can symbol `sym` of slot `slot` carry uplink transmissions?
  [[nodiscard]] virtual bool ul_capable(SlotIndex slot, int sym) const = 0;

  /// Period after which the direction map repeats, in slots (>= 1).
  [[nodiscard]] virtual int period_slots() const = 0;

  /// Scheduling / control granularity in symbols: control information goes
  /// out once per granule (§2: "the scheduling task is done just once per
  /// slot"), so data that misses a granule boundary waits for the next.
  /// 14 for slot-based configurations, smaller for Mini-Slot.
  [[nodiscard]] virtual int control_granularity_symbols() const { return kSymbolsPerSlot; }

  /// Symbols of DL control (PDCCH) at the start of each DL-capable granule.
  [[nodiscard]] virtual int control_symbols() const { return 1; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Direction map of one period rendered one char per symbol per slot
  /// ('D', 'U', 'X' for both-capable, '-' for guard), slots separated by '|'.
  /// Regenerates Fig 1's configuration schematics in machine-readable form.
  [[nodiscard]] std::string render_period() const;

  // -- Derived helpers ------------------------------------------------------

  [[nodiscard]] bool slot_has_dl(SlotIndex slot) const;
  [[nodiscard]] bool slot_has_ul(SlotIndex slot) const;
  /// Period of the direction map as a duration.
  [[nodiscard]] Nanos period() const {
    return num_.slot_duration() * period_slots();
  }

  // -- Value identity --------------------------------------------------------
  // Everything the latency analysis can observe about a duplex configuration
  // is its numerology, scheduling granularity, control overhead, and the
  // per-symbol direction map over one period. Two configs with identical
  // observables are interchangeable for every worst-case and simulation
  // result, whatever their concrete type or heap address — the canonical
  // identity the feasibility-query cache keys on. (`name()` is
  // presentational and deliberately not part of the identity.)

  /// Append this config's observable value identity to `words`.
  void append_value_words(CanonicalWords& words) const;
  /// How many words append_value_words appends, so callers can reserve.
  [[nodiscard]] std::size_t value_word_count() const;
  /// Stable 64-bit fold of the value identity.
  [[nodiscard]] std::uint64_t value_hash() const;

 protected:
  explicit DuplexConfig(Numerology n) : num_(n) {}
  // Copy/move are protected: concrete configs are value types, but copying
  // through a base pointer (slicing) is prevented.
  DuplexConfig(const DuplexConfig&) = default;
  DuplexConfig& operator=(const DuplexConfig&) = default;

 private:
  Numerology num_;
};

/// Deep value equality over the observable identity (see append_value_words).
/// Exact — compares the full direction map, never just a hash.
[[nodiscard]] bool value_equal(const DuplexConfig& a, const DuplexConfig& b);

}  // namespace u5g
