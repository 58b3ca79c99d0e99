#include "tdd/common_config.hpp"

namespace u5g {

namespace {
using namespace u5g::literals;

constexpr std::array<Nanos, 8> kStandardPeriods{
    Nanos{500'000},   Nanos{625'000},   Nanos{1'000'000}, Nanos{1'250'000},
    Nanos{2'000'000}, Nanos{2'500'000}, Nanos{5'000'000}, Nanos{10'000'000},
};

/// Direction masks of pattern-local slot `slot_in_pattern` of a pattern
/// spanning `slots` slots.
SlotMasks masks_in_pattern(const TddPattern& p, int slots, int slot_in_pattern) {
  if (slot_in_pattern < p.dl_slots) return {kSlotSymbolMask, 0};
  if (slot_in_pattern >= slots - p.ul_slots) return {0, kSlotSymbolMask};
  // The slot right after the DL slots carries the partial DL symbols; the
  // slot right before the UL slots carries the partial UL symbols. For the
  // common single-mixed-slot case these coincide.
  const bool has_mixed = p.dl_symbols > 0 || p.ul_symbols > 0;
  SlotMasks m;
  if (has_mixed && slot_in_pattern == p.dl_slots) {
    m.dl = static_cast<std::uint16_t>((1u << p.dl_symbols) - 1u);
  }
  if (has_mixed && slot_in_pattern == slots - p.ul_slots - 1) {
    const unsigned below_ul = (1u << (kSymbolsPerSlot - p.ul_symbols)) - 1u;
    m.ul = static_cast<std::uint16_t>(kSlotSymbolMask & ~below_ul & ~m.dl);
  }
  return m;
}

}  // namespace

std::span<const Nanos> standard_tdd_periods() { return kStandardPeriods; }

bool is_valid_tdd_period(Nanos p, Numerology num) {
  bool in_set = false;
  for (Nanos q : kStandardPeriods) in_set = in_set || q == p;
  if (!in_set) return false;
  return p % num.slot_duration() == Nanos::zero();
}

void TddCommonConfig::validate(const TddPattern& p, Numerology num) {
  if (!is_valid_tdd_period(p.periodicity, num))
    throw std::invalid_argument{
        "TddCommonConfig: periodicity not in the standard set "
        "{0.5,0.625,1,1.25,2,2.5,5,10}ms or not an integer slot count at this numerology"};
  const int slots = p.slots(num);
  if (p.dl_slots < 0 || p.ul_slots < 0 || p.dl_symbols < 0 || p.ul_symbols < 0)
    throw std::invalid_argument{"TddCommonConfig: negative pattern field"};
  if (p.dl_symbols >= kSymbolsPerSlot || p.ul_symbols >= kSymbolsPerSlot)
    throw std::invalid_argument{"TddCommonConfig: partial-slot symbols must be < 14"};
  const bool has_mixed = p.dl_symbols > 0 || p.ul_symbols > 0;
  const int needed = p.dl_slots + p.ul_slots + (has_mixed ? 1 : 0);
  if (needed > slots)
    throw std::invalid_argument{"TddCommonConfig: pattern does not fit in its period"};
  // When DL and UL partial symbols share one slot it must keep >= 1 guard
  // symbol (§2: switching DL->UL requires guard symbols).
  if (has_mixed && p.dl_slots + p.ul_slots + 1 == slots &&
      p.dl_symbols + p.ul_symbols >= kSymbolsPerSlot)
    throw std::invalid_argument{"TddCommonConfig: mixed slot needs at least one guard symbol"};
}

TddCommonConfig::TddCommonConfig(Numerology num, TddPattern p1, std::optional<TddPattern> p2)
    : DuplexConfig(num), p1_(p1), p2_(p2) {
  validate(p1_, num);
  if (p2_) validate(*p2_, num);
  p1_slots_ = p1_.slots(num);
  total_slots_ = p1_slots_ + (p2_ ? p2_->slots(num) : 0);
  name_ = "TDD-Common(";
  auto letter = [&](const TddPattern& p) {
    std::string s;
    s.append(static_cast<std::size_t>(p.dl_slots), 'D');
    if (p.dl_symbols > 0 || p.ul_symbols > 0) s += 'M';
    const int flex = p.slots(num) - p.dl_slots - p.ul_slots -
                     ((p.dl_symbols > 0 || p.ul_symbols > 0) ? 1 : 0);
    s.append(static_cast<std::size_t>(flex), 'F');
    s.append(static_cast<std::size_t>(p.ul_slots), 'U');
    return s;
  };
  name_ += letter(p1_);
  if (p2_) name_ += "+" + letter(*p2_);
  name_ += ")";
  masks_.reserve(static_cast<std::size_t>(total_slots_));
  const int p2_slots = total_slots_ - p1_slots_;
  for (int s = 0; s < total_slots_; ++s) {
    masks_.push_back(s < p1_slots_ ? masks_in_pattern(p1_, p1_slots_, s)
                                   : masks_in_pattern(*p2_, p2_slots, s - p1_slots_));
  }
}

TddCommonConfig TddCommonConfig::du(Numerology num) {
  return {num, TddPattern{Nanos{500'000}, 1, 0, 0, 1}};
}

TddCommonConfig TddCommonConfig::dm(Numerology num) {
  // [D][M: 4 DL / 2 guard / 8 UL] — §5's only viable minimal TDD config.
  return {num, TddPattern{Nanos{500'000}, 1, 4, 8, 0}};
}

TddCommonConfig TddCommonConfig::mu(Numerology num) {
  // [M: 4 DL / 2 guard / 8 UL][U]
  return {num, TddPattern{Nanos{500'000}, 0, 4, 8, 1}};
}

TddCommonConfig TddCommonConfig::dddu(Numerology num) {
  // §7 testbed: three DL slots, one UL slot; 2 ms period at µ1.
  return {num, TddPattern{num.slot_duration() * 4, 3, 0, 0, 1}};
}

}  // namespace u5g
