#include "tdd/opportunity.hpp"

#include <algorithm>
#include <bit>

namespace u5g {

namespace {

/// Global symbol index across slots.
struct SymbolCursor {
  SlotIndex slot;
  int sym;
};

/// End of a symbol; symbol 13 absorbs the integer-division remainder so that
/// it abuts the next slot start exactly.
Nanos symbol_end(const SlotClock& clk, SlotIndex slot, int sym) {
  return sym == kSymbolsPerSlot - 1 ? clk.slot_end(slot) : clk.symbol_start(slot, sym + 1);
}

/// First symbol whose start is at or after `t`.
SymbolCursor first_symbol_at_or_after(const SlotClock& clk, Nanos t) {
  SymbolCursor c{clk.slot_at(t), clk.symbol_at(t)};
  if (clk.symbol_start(c.slot, c.sym) < t && ++c.sym == kSymbolsPerSlot) c = {c.slot + 1, 0};
  return c;
}

/// Bits of the granule-opening symbols 0, g, 2g, ... of a slot.
std::uint16_t granule_start_mask(int g) {
  std::uint16_t m = 0;
  for (int sym = 0; sym < kSymbolsPerSlot; sym += g) m |= static_cast<std::uint16_t>(1u << sym);
  return m;
}

/// First granule boundary at or after `t`, as a (slot, symbol) cursor.
SymbolCursor first_granule_at_or_after(const SlotClock& clk, int g, Nanos t) {
  const SlotIndex slot = clk.slot_at(t);
  // Granules start at symbols 0, g, 2g, ... within each slot.
  for (int sym = 0; sym < kSymbolsPerSlot; sym += g) {
    if (clk.symbol_start(slot, sym) >= t) return {slot, sym};
  }
  return {slot + 1, 0};
}

/// Mask with bits `sym` and up set.
unsigned bits_from(int sym) { return ~((1u << sym) - 1u); }

/// The first granule at or after `t` that opens on a downlink-capable
/// symbol, starts before t + search_limit, and satisfies
/// `accept(sym, slot_dl_mask)`.
template <class Accept>
std::optional<SymbolCursor> first_dl_granule(const DuplexConfig& cfg, Nanos t, Nanos search_limit,
                                             Accept accept) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const int g = cfg.control_granularity_symbols();
  const std::uint16_t granules = granule_start_mask(g);
  const SymbolCursor first = first_granule_at_or_after(clk, g, t);
  for (SlotIndex slot = first.slot;; ++slot) {
    const int from = slot == first.slot ? first.sym : 0;
    if (clk.symbol_start(slot, from) >= deadline) return std::nullopt;
    const unsigned dl = cfg.dl_mask(slot);
    for (unsigned m = dl & granules & bits_from(from); m != 0; m &= m - 1) {
      const int sym = std::countr_zero(m);
      if (clk.symbol_start(slot, sym) >= deadline) return std::nullopt;
      if (accept(sym, dl)) return SymbolCursor{slot, sym};
    }
  }
}

}  // namespace

std::optional<TxWindow> next_ul_tx(const DuplexConfig& cfg, Nanos t, int n_symbols,
                                   Nanos search_limit) {
  if (n_symbols <= 0) return std::nullopt;
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const SymbolCursor first = first_symbol_at_or_after(clk, t);

  // A window is returned once its last symbol starts before the deadline;
  // the first qualifying run in time order gives the earliest such window.
  auto window = [&](SymbolCursor run_start, SlotIndex slot, int last) -> std::optional<TxWindow> {
    if (clk.symbol_start(slot, last) >= deadline) return std::nullopt;
    return TxWindow{clk.symbol_start(run_start.slot, run_start.sym), symbol_end(clk, slot, last)};
  };

  int run = 0;  // UL symbols of an open run ending at the previous slot's symbol 13
  SymbolCursor run_start{};
  for (SlotIndex slot = first.slot;; ++slot) {
    const int from = slot == first.slot ? first.sym : 0;
    if (clk.symbol_start(slot, from) >= deadline) return std::nullopt;
    unsigned m = cfg.ul_mask(slot) & bits_from(from);
    if (run > 0) {
      // Extend the run carried across the slot boundary.
      const int head = std::countr_one(m);
      if (run + head >= n_symbols) return window(run_start, slot, n_symbols - run - 1);
      if (head == kSymbolsPerSlot) {
        run += head;
        continue;
      }
      run = 0;  // the head (shorter than a window) is rescanned and dropped below
    }
    while (m != 0) {
      const int s0 = std::countr_zero(m);
      const int len = std::countr_one(m >> s0);
      if (len >= n_symbols) return window({slot, s0}, slot, s0 + n_symbols - 1);
      if (s0 + len == kSymbolsPerSlot) {
        run = len;
        run_start = {slot, s0};
        break;
      }
      m &= bits_from(s0 + len);
    }
  }
}

Nanos next_granule_boundary(const DuplexConfig& cfg, Nanos t) {
  const SlotClock clk = cfg.clock();
  const SymbolCursor c = first_granule_at_or_after(clk, cfg.control_granularity_symbols(), t);
  return clk.symbol_start(c.slot, c.sym);
}

Nanos next_scheduler_run(const DuplexConfig& cfg, Nanos t) { return next_granule_boundary(cfg, t); }

std::optional<TxWindow> next_dl_control(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const auto gr = first_dl_granule(cfg, t, search_limit, [](int, unsigned) { return true; });
  if (!gr) return std::nullopt;
  // Control occupies cfg.control_symbols() symbols from the boundary,
  // clamped to the slot (granules never cross slots).
  const SlotClock clk = cfg.clock();
  const int last = std::min(gr->sym + cfg.control_symbols(), kSymbolsPerSlot) - 1;
  return TxWindow{clk.symbol_start(gr->slot, gr->sym), symbol_end(clk, gr->slot, last)};
}

std::optional<TxWindow> next_dl_data(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const int g = cfg.control_granularity_symbols();
  const int control = cfg.control_symbols();
  int run = 0;
  const auto gr = first_dl_granule(cfg, t, search_limit, [&](int sym, unsigned dl) {
    // Length of the downlink-capable run opening the granule.
    run = std::min(std::countr_one(dl >> sym), std::min(sym + g, kSymbolsPerSlot) - sym);
    return run > control;
  });
  if (!gr) return std::nullopt;
  const SlotClock clk = cfg.clock();
  const Nanos start = clk.symbol_start(gr->slot, gr->sym);
  return TxWindow{start, symbol_end(clk, gr->slot, gr->sym + run - 1)};
}

}  // namespace u5g
