#pragma once
// Slot Format configuration (TS 38.213 §11.1.1; paper §2, Fig 1c).
//
// The gNB signals one of a set of standard-defined per-slot formats — a
// 14-symbol string over {Downlink, Uplink, Flexible}. Compared with
// Mini-Slot this reduces signalling overhead at the cost of coarser
// allocation, because only the predefined formats are permitted.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tdd/duplex_config.hpp"

namespace u5g {

enum class SymbolKind : std::uint8_t { Downlink, Uplink, Flexible };

/// One standard slot format: its index and 14 symbol kinds.
struct SlotFormat {
  int index = 0;
  std::array<SymbolKind, kSymbolsPerSlot> symbols{};

  /// Mask of the symbols of kind `k` (bit s = symbol s).
  [[nodiscard]] std::uint16_t mask(SymbolKind k) const;
  [[nodiscard]] bool has_dl() const { return mask(SymbolKind::Downlink) != 0; }
  [[nodiscard]] bool has_ul() const { return mask(SymbolKind::Uplink) != 0; }
  /// Render as a 14-char string over {D,U,F}.
  [[nodiscard]] std::string render() const;
};

/// Formats 0–45 of TS 38.213 Table 11.1.1-1. (Formats 46–55, the repeated
/// half-slot variants, are intentionally omitted: they add no new direction
/// structure to the latency analysis.)
[[nodiscard]] std::span<const SlotFormat> slot_format_table();

/// Format by index; throws std::out_of_range for indices we do not carry.
[[nodiscard]] const SlotFormat& slot_format(int index);

/// A duplex configuration built from a repeating sequence of slot-format
/// indices. Flexible symbols count as neither DL- nor UL-capable here: the
/// conservative reading used for worst-case analysis (a flexible symbol is
/// only usable after further dynamic signalling).
class SlotFormatConfig final : public DuplexConfig {
 public:
  SlotFormatConfig(Numerology num, std::vector<int> format_indices);

  [[nodiscard]] std::uint16_t dl_mask(SlotIndex slot) const override {
    return masks_[slot_in_period(slot, period_slots())].dl;
  }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex slot) const override {
    return masks_[slot_in_period(slot, period_slots())].ul;
  }
  [[nodiscard]] int period_slots() const override { return static_cast<int>(formats_.size()); }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const SlotFormat& format_of_slot(SlotIndex slot) const;

 private:
  std::vector<int> indices_;
  std::vector<const SlotFormat*> formats_;
  std::vector<SlotMasks> masks_;  ///< one per format in the sequence
};

}  // namespace u5g
