#pragma once
// TDD Common Configuration (TS 38.331 tdd-UL-DL-ConfigurationCommon; paper
// §2, Fig 1a).
//
// A period holds `dl_slots` full downlink slots, then an optional mixed slot
// (`dl_symbols` downlink symbols, guard, `ul_symbols` uplink symbols), then
// `ul_slots` full uplink slots. The standard restricts the period to
// {0.5, 0.625, 1, 1.25, 2, 2.5, 5, 10} ms, and the period must contain an
// integer number of slots at the chosen numerology. One or two consecutive
// patterns form the full configuration.

#include <array>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tdd/duplex_config.hpp"

namespace u5g {

/// One TDD pattern (one or two make a Common Configuration).
struct TddPattern {
  Nanos periodicity{};   ///< must be in the standard set and integer slots
  int dl_slots = 0;      ///< full DL slots at the start of the period
  int dl_symbols = 0;    ///< DL symbols at the start of the slot after them
  int ul_symbols = 0;    ///< UL symbols at the end of the slot before UL slots
  int ul_slots = 0;      ///< full UL slots at the end of the period

  [[nodiscard]] int slots(Numerology num) const {
    return static_cast<int>(periodicity / num.slot_duration());
  }
};

/// The standard's permissible pattern periodicities (paper §2).
[[nodiscard]] std::span<const Nanos> standard_tdd_periods();

/// Is `p` one of the standard periodicities and an integer slot count at µ?
[[nodiscard]] bool is_valid_tdd_period(Nanos p, Numerology num);

/// TDD Common Configuration: numerology + one or two patterns.
///
/// Throws std::invalid_argument on any standards violation: non-standard
/// periodicity, pattern overflowing its period, mixed-slot symbol overflow.
class TddCommonConfig final : public DuplexConfig {
 public:
  TddCommonConfig(Numerology num, TddPattern p1, std::optional<TddPattern> p2 = std::nullopt);

  [[nodiscard]] std::uint16_t dl_mask(SlotIndex slot) const override {
    return masks_[slot_in_period(slot, total_slots_)].dl;
  }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex slot) const override {
    return masks_[slot_in_period(slot, total_slots_)].ul;
  }
  [[nodiscard]] int period_slots() const override { return total_slots_; }
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const TddPattern& pattern1() const { return p1_; }
  [[nodiscard]] const std::optional<TddPattern>& pattern2() const { return p2_; }

  // -- The paper's §5 minimal configurations (0.5 ms period) ---------------
  // All take the numerology (µ2 → 0.25 ms slots → 2-slot period, the only
  // FR1 choice that can meet URLLC). `dl_symbols`/`ul_symbols` of the mixed
  // slot default to a 4 DL / 2 guard / 8 UL split.

  static TddCommonConfig du(Numerology num = kMu2);  ///< [D][U]
  static TddCommonConfig dm(Numerology num = kMu2);  ///< [D][M] — the only viable one
  static TddCommonConfig mu(Numerology num = kMu2);  ///< [M][U]

  /// The §7 testbed configuration: DDDU at the given numerology
  /// (µ1 → 0.5 ms slots → 2 ms period).
  static TddCommonConfig dddu(Numerology num = kMu1);

 private:
  static void validate(const TddPattern& p, Numerology num);

  TddPattern p1_;
  std::optional<TddPattern> p2_;
  int p1_slots_ = 0;
  int total_slots_ = 0;
  /// Direction masks of each period slot; the pattern arithmetic runs once
  /// per slot at construction and never again.
  std::vector<SlotMasks> masks_;
  std::string name_;
};

}  // namespace u5g
