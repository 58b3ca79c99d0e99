#pragma once
// Mini-Slot configuration (paper §2, Fig 1b; TR 38.912).
//
// The gNB uses the first symbol(s) of each mini-slot to announce the
// characterization of the remaining symbols, so any mini-slot can be turned
// into DL or UL on demand. For single-flow latency analysis that makes every
// symbol *capable* of either direction, with decisions at mini-slot
// granularity and one control symbol of overhead per mini-slot — finer
// allocation bought with signalling overhead (§9 discusses the scalability
// cost).

#include <stdexcept>
#include <string>

#include "tdd/duplex_config.hpp"

namespace u5g {

class MiniSlotConfig final : public DuplexConfig {
 public:
  /// `mini_slot_symbols`: 2, 4 or 7 per TR 38.912.
  explicit MiniSlotConfig(Numerology num, int mini_slot_symbols = 2)
      : DuplexConfig(num), len_(mini_slot_symbols) {
    if (len_ != 2 && len_ != 4 && len_ != 7)
      throw std::invalid_argument{"MiniSlotConfig: mini-slot length must be 2, 4 or 7 symbols"};
  }

  [[nodiscard]] std::uint16_t dl_mask(SlotIndex) const override { return kSlotSymbolMask; }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex) const override { return kSlotSymbolMask; }
  [[nodiscard]] int period_slots() const override { return 1; }
  [[nodiscard]] int control_granularity_symbols() const override { return len_; }
  [[nodiscard]] int control_symbols() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return "MiniSlot(" + std::to_string(len_) + "sym)";
  }

  /// The standard's recommendation (TR 38.912; paper §5): mini-slot is
  /// targeted at slot durations of at least 0.5 ms. Using it with shorter
  /// slots "goes against the standard's recommendation" — the paper flags
  /// this as needing practical evaluation. True when this instance violates
  /// the recommendation.
  [[nodiscard]] bool violates_standard_recommendation() const {
    return numerology().slot_duration() < Nanos{500'000};
  }

 private:
  int len_;
};

}  // namespace u5g
