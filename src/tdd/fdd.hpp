#pragma once
// FDD configuration (paper §2): separate, equal UL and DL bandwidths — a
// full-duplex channel at every instant. Every symbol is both DL- and
// UL-capable; scheduling/control remains per slot. Terrestrial FDD exists
// only below 2.6 GHz, so it is unavailable to private 5G (§2, §9); the
// design space marks FDD points accordingly.

#include <string>

#include "tdd/duplex_config.hpp"

namespace u5g {

class FddConfig final : public DuplexConfig {
 public:
  explicit FddConfig(Numerology num) : DuplexConfig(num) {}

  [[nodiscard]] std::uint16_t dl_mask(SlotIndex) const override { return kSlotSymbolMask; }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex) const override { return kSlotSymbolMask; }
  [[nodiscard]] int period_slots() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "FDD"; }
};

}  // namespace u5g
