#include "tdd/slot_format.hpp"

namespace u5g {

namespace {

/// Builds a format from a 14-char {D,U,F} string.
constexpr SlotFormat make_format(int index, const char (&s)[kSymbolsPerSlot + 1]) {
  SlotFormat f{};
  f.index = index;
  for (int i = 0; i < kSymbolsPerSlot; ++i) {
    f.symbols[static_cast<std::size_t>(i)] =
        s[i] == 'D' ? SymbolKind::Downlink : s[i] == 'U' ? SymbolKind::Uplink : SymbolKind::Flexible;
  }
  return f;
}

// TS 38.213 Table 11.1.1-1, formats 0-45.
constexpr std::array<SlotFormat, 46> kFormats{{
    make_format(0, "DDDDDDDDDDDDDD"),
    make_format(1, "UUUUUUUUUUUUUU"),
    make_format(2, "FFFFFFFFFFFFFF"),
    make_format(3, "DDDDDDDDDDDDDF"),
    make_format(4, "DDDDDDDDDDDDFF"),
    make_format(5, "DDDDDDDDDDDFFF"),
    make_format(6, "DDDDDDDDDDFFFF"),
    make_format(7, "DDDDDDDDDFFFFF"),
    make_format(8, "FFFFFFFFFFFFFU"),
    make_format(9, "FFFFFFFFFFFFUU"),
    make_format(10, "FUUUUUUUUUUUUU"),
    make_format(11, "FFUUUUUUUUUUUU"),
    make_format(12, "FFFUUUUUUUUUUU"),
    make_format(13, "FFFFUUUUUUUUUU"),
    make_format(14, "FFFFFUUUUUUUUU"),
    make_format(15, "FFFFFFUUUUUUUU"),
    make_format(16, "DFFFFFFFFFFFFF"),
    make_format(17, "DDFFFFFFFFFFFF"),
    make_format(18, "DDDFFFFFFFFFFF"),
    make_format(19, "DFFFFFFFFFFFFU"),
    make_format(20, "DDFFFFFFFFFFFU"),
    make_format(21, "DDDFFFFFFFFFFU"),
    make_format(22, "DFFFFFFFFFFFUU"),
    make_format(23, "DDFFFFFFFFFFUU"),
    make_format(24, "DDDFFFFFFFFFUU"),
    make_format(25, "DFFFFFFFFFFUUU"),
    make_format(26, "DDFFFFFFFFFUUU"),
    make_format(27, "DDDFFFFFFFFUUU"),
    make_format(28, "DDDDDDDDDDDDFU"),
    make_format(29, "DDDDDDDDDDDFFU"),
    make_format(30, "DDDDDDDDDDFFFU"),
    make_format(31, "DDDDDDDDDDDFUU"),
    make_format(32, "DDDDDDDDDDFFUU"),
    make_format(33, "DDDDDDDDDFFFUU"),
    make_format(34, "DFUUUUUUUUUUUU"),
    make_format(35, "DDFUUUUUUUUUUU"),
    make_format(36, "DDDFUUUUUUUUUU"),
    make_format(37, "DFFUUUUUUUUUUU"),
    make_format(38, "DDFFUUUUUUUUUU"),
    make_format(39, "DDDFFUUUUUUUUU"),
    make_format(40, "DFFFUUUUUUUUUU"),
    make_format(41, "DDFFFUUUUUUUUU"),
    make_format(42, "DDDFFFUUUUUUUU"),
    make_format(43, "DDDDDDDDDFFFFU"),
    make_format(44, "DDDDDDFFFFFFUU"),
    make_format(45, "DDDDDDFFUUUUUU"),
}};

}  // namespace

std::uint16_t SlotFormat::mask(SymbolKind k) const {
  std::uint16_t m = 0;
  for (int i = 0; i < kSymbolsPerSlot; ++i) {
    if (symbols[static_cast<std::size_t>(i)] == k) m |= static_cast<std::uint16_t>(1u << i);
  }
  return m;
}

std::string SlotFormat::render() const {
  std::string s;
  for (SymbolKind k : symbols)
    s += k == SymbolKind::Downlink ? 'D' : k == SymbolKind::Uplink ? 'U' : 'F';
  return s;
}

std::span<const SlotFormat> slot_format_table() { return kFormats; }

const SlotFormat& slot_format(int index) {
  if (index < 0 || index >= static_cast<int>(kFormats.size()))
    throw std::out_of_range{"slot_format: index outside the carried table (0-45)"};
  return kFormats[static_cast<std::size_t>(index)];
}

SlotFormatConfig::SlotFormatConfig(Numerology num, std::vector<int> format_indices)
    : DuplexConfig(num), indices_(std::move(format_indices)) {
  if (indices_.empty()) throw std::invalid_argument{"SlotFormatConfig: empty format sequence"};
  formats_.reserve(indices_.size());
  masks_.reserve(indices_.size());
  for (int idx : indices_) {
    const SlotFormat& f = slot_format(idx);
    formats_.push_back(&f);
    masks_.push_back({f.mask(SymbolKind::Downlink), f.mask(SymbolKind::Uplink)});
  }
}

const SlotFormat& SlotFormatConfig::format_of_slot(SlotIndex slot) const {
  return *formats_[slot_in_period(slot, period_slots())];
}

std::string SlotFormatConfig::name() const {
  std::string n = "SlotFormat(";
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (i != 0) n += ',';
    n += std::to_string(indices_[i]);
  }
  return n + ")";
}

}  // namespace u5g
