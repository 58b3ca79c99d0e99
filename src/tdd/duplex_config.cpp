#include "tdd/duplex_config.hpp"

namespace u5g {

std::string DuplexConfig::render_period() const {
  std::string out;
  for (int s = 0; s < period_slots(); ++s) {
    if (s != 0) out += '|';
    for (int k = 0; k < kSymbolsPerSlot; ++k) {
      const bool d = dl_capable(s, k);
      const bool u = ul_capable(s, k);
      out += d && u ? 'X' : d ? 'D' : u ? 'U' : '-';
    }
  }
  return out;
}

bool DuplexConfig::slot_has_dl(SlotIndex slot) const {
  for (int k = 0; k < kSymbolsPerSlot; ++k) {
    if (dl_capable(slot, k)) return true;
  }
  return false;
}

bool DuplexConfig::slot_has_ul(SlotIndex slot) const {
  for (int k = 0; k < kSymbolsPerSlot; ++k) {
    if (ul_capable(slot, k)) return true;
  }
  return false;
}

void DuplexConfig::append_value_words(CanonicalWords& words) const {
  words.add_signed(numerology().mu());
  words.add_signed(period_slots());
  words.add_signed(control_granularity_symbols());
  words.add_signed(control_symbols());
  // The direction map, two bits per symbol packed into words: bit 0 = DL
  // capability, bit 1 = UL capability, in (slot, symbol) order.
  std::uint64_t w = 0;
  int bits = 0;
  for (int s = 0; s < period_slots(); ++s) {
    for (int k = 0; k < kSymbolsPerSlot; ++k) {
      const std::uint64_t sym = (dl_capable(s, k) ? 1u : 0u) | (ul_capable(s, k) ? 2u : 0u);
      w |= sym << bits;
      bits += 2;
      if (bits == 64) {
        words.add(w);
        w = 0;
        bits = 0;
      }
    }
  }
  if (bits > 0) words.add(w);
}

std::size_t DuplexConfig::value_word_count() const {
  // Four scalars, then two bits per symbol packed 32 symbols to a word.
  const auto symbols = static_cast<std::size_t>(period_slots()) * kSymbolsPerSlot;
  return 4 + (symbols + 31) / 32;
}

std::uint64_t DuplexConfig::value_hash() const {
  CanonicalWords words;
  append_value_words(words);
  return words.hash();
}

bool value_equal(const DuplexConfig& a, const DuplexConfig& b) {
  if (&a == &b) return true;
  CanonicalWords wa, wb;
  a.append_value_words(wa);
  b.append_value_words(wb);
  return wa == wb;
}

}  // namespace u5g
