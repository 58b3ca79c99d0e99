#include "tdd/duplex_config.hpp"

namespace u5g {

std::string DuplexConfig::render_period() const {
  std::string out;
  for (int s = 0; s < period_slots(); ++s) {
    if (s != 0) out += '|';
    const std::uint16_t dl = dl_mask(s);
    const std::uint16_t ul = ul_mask(s);
    for (int k = 0; k < kSymbolsPerSlot; ++k) {
      const bool d = (dl >> k) & 1u;
      const bool u = (ul >> k) & 1u;
      out += d && u ? 'X' : d ? 'D' : u ? 'U' : '-';
    }
  }
  return out;
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
    const std::uint16_t dl = dl_mask(s);
    const std::uint16_t ul = ul_mask(s);
    for (int k = 0; k < kSymbolsPerSlot; ++k) {
      const std::uint64_t sym = ((dl >> k) & 1u) | (((ul >> k) & 1u) << 1);
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
