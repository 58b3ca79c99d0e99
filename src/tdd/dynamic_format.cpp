#include "tdd/dynamic_format.hpp"

#include <algorithm>
#include <stdexcept>

namespace u5g {

std::string DecidedFormat::render() const {
  std::string s(kSymbolsPerSlot, '-');
  for (int i = 0; i < kSymbolsPerSlot; ++i) {
    const bool d = (added_dl >> i) & 1u;
    const bool u = (added_ul >> i) & 1u;
    if (d && u) {
      s[static_cast<std::size_t>(i)] = 'X';
    } else if (d) {
      s[static_cast<std::size_t>(i)] = 'D';
    } else if (u) {
      s[static_cast<std::size_t>(i)] = 'U';
    }
  }
  return s;
}

std::optional<DecidedFormat> DecidedFormat::parse(std::string_view s) {
  if (s.size() != static_cast<std::size_t>(kSymbolsPerSlot)) return std::nullopt;
  DecidedFormat f;
  for (int i = 0; i < kSymbolsPerSlot; ++i) {
    switch (s[static_cast<std::size_t>(i)]) {
      case 'X':
        f.added_dl |= static_cast<std::uint16_t>(1u << i);
        f.added_ul |= static_cast<std::uint16_t>(1u << i);
        break;
      case 'D':
        f.added_dl |= static_cast<std::uint16_t>(1u << i);
        break;
      case 'U':
        f.added_ul |= static_cast<std::uint16_t>(1u << i);
        break;
      case '-':
        break;
      default:
        return std::nullopt;
    }
  }
  return f;
}

SlotFormat DecidedFormat::to_slot_format(std::uint16_t base_dl, std::uint16_t base_ul) const {
  SlotFormat fmt;
  fmt.index = -1;  // dynamically decided, not a TS 38.213 table entry
  const std::uint16_t dl = base_dl | added_dl;
  const std::uint16_t ul = base_ul | added_ul;
  for (int i = 0; i < kSymbolsPerSlot; ++i) {
    const bool d = (dl >> i) & 1u;
    const bool u = (ul >> i) & 1u;
    fmt.symbols[static_cast<std::size_t>(i)] =
        d == u ? SymbolKind::Flexible : (d ? SymbolKind::Downlink : SymbolKind::Uplink);
  }
  return fmt;
}

DynamicFormatPolicy::DynamicFormatPolicy(const DuplexConfig& base, const DynamicTddConfig& cfg)
    : base_(base), cfg_(cfg) {
  cfg_.guard_slots = std::max(cfg_.guard_slots, 0);
  cfg_.hold_slots = std::max(cfg_.hold_slots, 1);
  cfg_.ul_guard_slots = std::max(cfg_.ul_guard_slots, 1);
}

DecidedFormat DynamicFormatPolicy::decide(SlotIndex k, const TddQueueState& q) {
  const SlotIndex target = k + cfg_.guard_slots;
  if (ul_demand(q)) ul_hold_until_ = std::max(ul_hold_until_, target + cfg_.hold_slots);
  if (dl_demand(q)) dl_hold_until_ = std::max(dl_hold_until_, target + cfg_.hold_slots);

  DecidedFormat f;
  if (target < ul_hold_until_) {
    f.added_ul = static_cast<std::uint16_t>(DecidedFormat::kAllSymbols & ~base_.ul_mask(target));
  }
  if (target < dl_hold_until_) {
    // The starvation guard: after ul_guard_slots consecutive DL-upgraded
    // slots one clean slot goes out, whatever the demand says.
    if (dl_run_ >= cfg_.ul_guard_slots) {
      dl_run_ = 0;
    } else {
      f.added_dl = static_cast<std::uint16_t>(DecidedFormat::kAllSymbols & ~base_.dl_mask(target));
      ++dl_run_;
    }
  } else {
    dl_run_ = 0;
  }
  if (f.any()) ++upgraded_;
  return f;
}

DynamicDuplexConfig::DynamicDuplexConfig(std::shared_ptr<const DuplexConfig> base)
    : DuplexConfig(base->numerology()), base_(std::move(base)) {}

void DynamicDuplexConfig::commit(SlotIndex slot, DecidedFormat f) {
  if (((f.added_dl | f.added_ul) & ~DecidedFormat::kAllSymbols) != 0)
    throw std::invalid_argument{"DynamicDuplexConfig: added mask sets a bit past symbol 13"};
  if (overlay_.empty()) first_ = slot;
  if (slot < committed_through()) return;  // already committed (idempotent)
  while (committed_through() < slot) overlay_.push_back(0);
  overlay_.push_back(static_cast<std::uint32_t>(f.added_dl) |
                     (static_cast<std::uint32_t>(f.added_ul) << 16));
}

DecidedFormat DynamicDuplexConfig::committed(SlotIndex slot) const {
  if (slot < first_ || slot >= committed_through()) return {};
  const std::uint32_t w = overlay_[static_cast<std::size_t>(slot - first_)];
  DecidedFormat f;
  f.added_dl = static_cast<std::uint16_t>(w & 0xffffu);
  f.added_ul = static_cast<std::uint16_t>(w >> 16);
  return f;
}

}  // namespace u5g
