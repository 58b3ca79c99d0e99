// Unit tests for the transmission-opportunity queries — the primitives the
// whole §5 analysis rests on. Exact expected times are computed from the
// µ2 grid: slot 250 µs, symbol 17857 ns (last symbol absorbs the remainder).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

constexpr Nanos kSym{17'857};        // µ2 symbol (integer division)
constexpr Nanos kSlot{250'000};

// ---------------------------------------------------------------------------
// next_ul_tx

TEST(NextUlTxTest, DuFindsUplinkSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);  // D | U
  const auto w = next_ul_tx(c, Nanos{1}, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);                 // first symbol of the U slot
  EXPECT_EQ(w->end, kSlot + kSym);
}

TEST(NextUlTxTest, StartAtOrAfterT) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Exactly at a UL symbol boundary: usable.
  EXPECT_EQ(next_ul_tx(c, kSlot, 1)->start, kSlot);
  // One ns later: the next symbol.
  EXPECT_EQ(next_ul_tx(c, kSlot + Nanos{1}, 1)->start, kSlot + kSym);
}

TEST(NextUlTxTest, DmUplinkTail) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);  // D | DDDD--UUUUUUUU
  const auto w = next_ul_tx(c, Nanos{1}, 2);
  ASSERT_TRUE(w.has_value());
  // UL symbols are 6..13 of slot 1.
  EXPECT_EQ(w->start, kSlot + kSym * 6);
  EXPECT_EQ(w->end, kSlot + kSym * 8);
}

TEST(NextUlTxTest, RunCrossesSlotBoundary) {
  const TddCommonConfig c = TddCommonConfig::mu(kMu2);  // DDDD--UUUUUUUU | U...U
  // 10 consecutive UL symbols need the M tail (8) + the U slot head (2):
  // only possible because symbol 13 of slot 0 abuts symbol 0 of slot 1.
  const auto w = next_ul_tx(c, Nanos{1}, 10);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSym * 6);
  EXPECT_EQ(w->end, kSlot + kSym * 2);
}

TEST(NextUlTxTest, TooLongRunWaitsForNextRegion) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  // 9 consecutive UL symbols never exist (the tail is 8): nullopt.
  EXPECT_FALSE(next_ul_tx(c, Nanos{1}, 9, 10_ms).has_value());
}

TEST(NextUlTxTest, NoUplinkAnywhere) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  EXPECT_FALSE(next_ul_tx(all_dl, Nanos{0}, 1, 5_ms).has_value());
}

TEST(NextUlTxTest, ZeroSymbolsRejected) {
  const FddConfig c{kMu2};
  EXPECT_FALSE(next_ul_tx(c, Nanos{0}, 0).has_value());
}

TEST(NextUlTxTest, LastSymbolWindowEndsAtSlotBoundary) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Window starting at symbol 13 of the U slot must end exactly at the slot
  // boundary (remainder absorbed), not at 14 * sym.
  const auto w = next_ul_tx(c, kSlot + kSym * 13, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot + kSym * 13);
  EXPECT_EQ(w->end, kSlot * 2);
}

class UlWindowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UlWindowPropertyTest, ReturnedWindowsAreUplinkCapable) {
  // Property: every symbol inside a returned window is UL-capable, for all
  // §5 candidate configs and a sweep of query times and lengths.
  const int n_symbols = GetParam();
  std::vector<std::unique_ptr<DuplexConfig>> cfgs;
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  cfgs.push_back(std::make_unique<MiniSlotConfig>(kMu2, 2));
  cfgs.push_back(std::make_unique<FddConfig>(kMu2));
  for (const auto& cfg : cfgs) {
    const SlotClock clk = cfg->clock();
    for (int probe = 0; probe < 60; ++probe) {
      const Nanos t = Nanos{probe * 13'441};
      const auto w = next_ul_tx(*cfg, t, n_symbols, 20_ms);
      if (!w) continue;
      EXPECT_GE(w->start, t);
      for (Nanos s = w->start; s < w->end - Nanos{1}; s += clk.symbol_duration()) {
        EXPECT_TRUE(cfg->ul_capable(clk.slot_at(s), clk.symbol_at(s)))
            << cfg->name() << " t=" << t.count() << " sym at " << s.count();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, UlWindowPropertyTest, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Granule boundaries / scheduler runs

TEST(GranuleTest, SlotGranularity) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  EXPECT_EQ(next_granule_boundary(c, Nanos{0}), Nanos{0});
  EXPECT_EQ(next_granule_boundary(c, Nanos{1}), kSlot);
  EXPECT_EQ(next_granule_boundary(c, kSlot), kSlot);
  EXPECT_EQ(next_scheduler_run(c, kSlot + Nanos{1}), kSlot * 2);
}

TEST(GranuleTest, MiniSlotGranularity) {
  const MiniSlotConfig c{kMu2, 2};
  EXPECT_EQ(next_granule_boundary(c, Nanos{1}), kSym * 2);
  EXPECT_EQ(next_granule_boundary(c, kSym * 2), kSym * 2);
  EXPECT_EQ(next_granule_boundary(c, kSym * 11), kSym * 12);
  // Past symbol 12 the next granule is the next slot's symbol 0.
  EXPECT_EQ(next_granule_boundary(c, kSym * 12 + Nanos{1}), kSlot);
}

TEST(GranuleTest, SevenSymbolMiniSlot) {
  const MiniSlotConfig c{kMu2, 7};
  EXPECT_EQ(next_granule_boundary(c, Nanos{1}), kSym * 7);
  EXPECT_EQ(next_granule_boundary(c, kSym * 7 + Nanos{1}), kSlot);
}

// ---------------------------------------------------------------------------
// next_dl_control

TEST(NextDlControlTest, SkipsUplinkSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Just after the D slot starts: next control is the D slot of period 2.
  const auto w = next_dl_control(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_EQ(w->end, kSlot * 2 + kSym);  // 1 control symbol
}

TEST(NextDlControlTest, MixedSlotCarriesControl) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  // After slot 0 begins, the M slot (DL head) provides the next control.
  const auto w = next_dl_control(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
}

TEST(NextDlControlTest, FddEverySlot) {
  const FddConfig c{kMu2};
  EXPECT_EQ(next_dl_control(c, Nanos{1})->start, kSlot);
  EXPECT_EQ(next_dl_control(c, kSlot)->start, kSlot);
}

TEST(NextDlControlTest, NoDownlinkAnywhere) {
  const SlotFormatConfig all_ul{kMu2, {1}};
  EXPECT_FALSE(next_dl_control(all_ul, Nanos{0}, 5_ms).has_value());
}

// ---------------------------------------------------------------------------
// next_dl_data

TEST(NextDlDataTest, FullDlSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  const auto w = next_dl_data(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_EQ(w->end, kSlot * 3);  // full DL slot: run ends at slot end
}

TEST(NextDlDataTest, MixedSlotRunEndsAtGuard) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  const auto w = next_dl_data(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
  EXPECT_EQ(w->end, kSlot + kSym * 4);  // 4 DL symbols then guard
}

TEST(NextDlDataTest, RunMustExceedControlOverhead) {
  // A slot with a single DL symbol can carry control but no data.
  const SlotFormatConfig c{kMu2, {16, 0}};  // DFFF... then full D
  const auto w = next_dl_data(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);  // skipped the 1-symbol-DL slot
}

TEST(NextDlDataTest, MiniSlotServesWithinGranule) {
  const MiniSlotConfig c{kMu2, 2};
  const auto w = next_dl_data(c, Nanos{1});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSym * 2);
  EXPECT_EQ(w->end, kSym * 4);  // the granule itself
}

TEST(NextDlDataTest, ExactBoundaryUsable) {
  const FddConfig c{kMu2};
  const auto w = next_dl_data(c, kSlot);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
  EXPECT_EQ(w->end, kSlot * 2);
}

// ---------------------------------------------------------------------------
// Differential oracle: the slot-word scans against a symbol-by-symbol walk

/// The reference scans: walk the grid one symbol (or one granule) at a
/// time, asking dl_capable/ul_capable per symbol. Slow, and obviously
/// faithful to the §4/§5 semantics stated in opportunity.hpp.
namespace reference {

struct Cursor {
  SlotIndex slot;
  int sym;
  void advance() {
    if (++sym == kSymbolsPerSlot) {
      sym = 0;
      ++slot;
    }
  }
};

Nanos start(const SlotClock& clk, Cursor c) { return clk.symbol_start(c.slot, c.sym); }

Nanos end(const SlotClock& clk, Cursor c) {
  return c.sym == kSymbolsPerSlot - 1 ? clk.slot_end(c.slot) : clk.symbol_start(c.slot, c.sym + 1);
}

std::optional<TxWindow> next_ul_tx(const DuplexConfig& cfg, Nanos t, int n_symbols,
                                   Nanos search_limit) {
  if (n_symbols <= 0) return std::nullopt;
  const SlotClock clk = cfg.clock();
  Cursor c{clk.slot_at(t), clk.symbol_at(t)};
  if (start(clk, c) < t) c.advance();
  const Nanos deadline = t + search_limit;
  int run = 0;
  Cursor run_start = c;
  while (start(clk, c) < deadline) {
    if (cfg.ul_capable(c.slot, c.sym)) {
      if (run == 0) run_start = c;
      if (++run == n_symbols) return TxWindow{start(clk, run_start), end(clk, c)};
    } else {
      run = 0;
    }
    c.advance();
  }
  return std::nullopt;
}

Nanos next_granule_boundary(const DuplexConfig& cfg, Nanos t) {
  const SlotClock clk = cfg.clock();
  const SlotIndex slot = clk.slot_at(t);
  for (int sym = 0; sym < kSymbolsPerSlot; sym += cfg.control_granularity_symbols()) {
    const Nanos b = clk.symbol_start(slot, sym);
    if (b >= t) return b;
  }
  return clk.slot_start(slot + 1);
}

std::optional<TxWindow> next_dl_control(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  for (Nanos b = reference::next_granule_boundary(cfg, t); b < deadline;
       b = reference::next_granule_boundary(cfg, b + Nanos{1})) {
    const SlotIndex slot = clk.slot_at(b);
    const int sym = clk.symbol_at(b);
    if (cfg.dl_capable(slot, sym)) {
      const int last = std::min(sym + cfg.control_symbols(), kSymbolsPerSlot) - 1;
      return TxWindow{b, end(clk, Cursor{slot, last})};
    }
  }
  return std::nullopt;
}

std::optional<TxWindow> next_dl_data(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const int g = cfg.control_granularity_symbols();
  for (Nanos b = reference::next_granule_boundary(cfg, t); b < deadline;
       b = reference::next_granule_boundary(cfg, b + Nanos{1})) {
    const SlotIndex slot = clk.slot_at(b);
    const int first = clk.symbol_at(b);
    const int granule_end = std::min(first + g, kSymbolsPerSlot);
    int run = 0;
    while (first + run < granule_end && cfg.dl_capable(slot, first + run)) ++run;
    if (run > cfg.control_symbols()) return TxWindow{b, end(clk, Cursor{slot, first + run - 1})};
  }
  return std::nullopt;
}

}  // namespace reference

/// Aperiodic: the inner pattern's UL capability ends after `last_ul_slot`.
class UlEraConfig final : public DuplexConfig {
 public:
  UlEraConfig(TddCommonConfig inner, SlotIndex last_ul_slot)
      : DuplexConfig(inner.numerology()), inner_(std::move(inner)), last_(last_ul_slot) {}
  [[nodiscard]] std::uint16_t dl_mask(SlotIndex s) const override { return inner_.dl_mask(s); }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex s) const override {
    return s <= last_ ? inner_.ul_mask(s) : std::uint16_t{0};
  }
  [[nodiscard]] int period_slots() const override { return inner_.period_slots(); }
  [[nodiscard]] std::string name() const override { return "ul-era"; }

 private:
  TddCommonConfig inner_;
  SlotIndex last_;
};

/// A direction map scheduled at a finer granularity than the slot, so that
/// the DL scans meet several granules per slot of which only some qualify.
class GranularConfig final : public DuplexConfig {
 public:
  GranularConfig(std::shared_ptr<const DuplexConfig> inner, int granularity, int control)
      : DuplexConfig(inner->numerology()), inner_(std::move(inner)), g_(granularity),
        control_(control) {}
  [[nodiscard]] std::uint16_t dl_mask(SlotIndex s) const override { return inner_->dl_mask(s); }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex s) const override { return inner_->ul_mask(s); }
  [[nodiscard]] int period_slots() const override { return inner_->period_slots(); }
  [[nodiscard]] int control_granularity_symbols() const override { return g_; }
  [[nodiscard]] int control_symbols() const override { return control_; }
  [[nodiscard]] std::string name() const override {
    return inner_->name() + " g" + std::to_string(g_) + " c" + std::to_string(control_);
  }

 private:
  std::shared_ptr<const DuplexConfig> inner_;
  int g_;
  int control_;
};

std::vector<std::shared_ptr<const DuplexConfig>> oracle_configs(std::mt19937_64& rng) {
  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(
      kMu1, TddPattern{2_ms, 2, 6, 4, 1}, TddPattern{1_ms, 1, 0, 0, 1}));
  cfgs.push_back(std::make_shared<TddCommonConfig>(kMu2, TddPattern{2_ms, 2, 4, 4, 1}));
  cfgs.push_back(std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{0}));
  cfgs.push_back(std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{1}));
  cfgs.push_back(std::make_shared<SlotFormatConfig>(kMu1, std::vector<int>{0, 0, 28, 1}));
  cfgs.push_back(std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{45, 34, 1, 16, 10}));
  for (Numerology num : {kMu0, kMu1, kMu2}) {
    for (int len : {2, 4, 7}) cfgs.push_back(std::make_shared<MiniSlotConfig>(num, len));
    cfgs.push_back(std::make_shared<FddConfig>(num));
  }
  // Random committed overlays on the DM base, over the slots the queries
  // reach; later slots fall back to the base.
  auto dyn = std::make_shared<DynamicDuplexConfig>(
      std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  for (SlotIndex k = 0; k < 400; ++k) {
    DecidedFormat f;
    switch (rng() % 4) {
      case 0: break;
      case 1: f.added_ul = DecidedFormat::kAllSymbols; break;
      default:
        f.added_dl = static_cast<std::uint16_t>(rng() & DecidedFormat::kAllSymbols);
        f.added_ul = static_cast<std::uint16_t>(rng() & DecidedFormat::kAllSymbols);
    }
    dyn->commit(k, f);
  }
  for (int g : {2, 3, 4, 7}) {
    for (int control : {1, 2}) cfgs.push_back(std::make_shared<GranularConfig>(dyn, g, control));
  }
  const auto formats =
      std::make_shared<SlotFormatConfig>(kMu1, std::vector<int>{45, 3, 17, 31, 1, 44, 20});
  for (int g : {2, 4, 7}) cfgs.push_back(std::make_shared<GranularConfig>(formats, g, 2));
  cfgs.push_back(std::move(dyn));
  cfgs.push_back(std::make_shared<UlEraConfig>(TddCommonConfig::mu(kMu2), 37));
  return cfgs;
}

std::string show(const std::optional<TxWindow>& w) {
  return w ? "[" + std::to_string(w->start.count()) + ", " + std::to_string(w->end.count()) + ")"
           : "nullopt";
}

TEST(OpportunityOracleTest, SlotWordScansMatchSymbolWalk) {
  std::mt19937_64 rng{20240515};
  for (const auto& cfg : oracle_configs(rng)) {
    const SlotClock clk = cfg->clock();
    const std::int64_t sym_ns = clk.symbol_duration().count();
    const std::int64_t slot_ns = clk.slot_duration().count();
    for (int q = 0; q < 1500; ++q) {
      // Query times: exact symbol boundaries, one ns past them, anywhere.
      const SlotIndex slot = static_cast<SlotIndex>(rng() % 40);
      const int sym = static_cast<int>(rng() % kSymbolsPerSlot);
      Nanos t = clk.symbol_start(slot, sym);
      if (q % 3 == 1) t += Nanos{1};
      if (q % 3 == 2) t = Nanos{static_cast<std::int64_t>(rng() % (40 * slot_ns))};
      const int n = 1 + static_cast<int>(rng() % 41);
      // Search limits: the default, a few slots, and cuts at or one ns
      // around a symbol boundary (which split a window in half).
      Nanos limit{40'000'000};
      if (q % 4 == 1) limit = Nanos{static_cast<std::int64_t>(rng() % (4 * slot_ns))};
      if (q % 4 == 2) {
        limit = Nanos{static_cast<std::int64_t>(rng() % 42) * sym_ns +
                      static_cast<std::int64_t>(rng() % 3) - 1};
      }
      const std::string at = cfg->name() + " t=" + std::to_string(t.count()) +
                             " n=" + std::to_string(n) + " limit=" + std::to_string(limit.count());
      ASSERT_EQ(next_granule_boundary(*cfg, t), reference::next_granule_boundary(*cfg, t)) << at;
      const auto ul = next_ul_tx(*cfg, t, n, limit);
      const auto ul_ref = reference::next_ul_tx(*cfg, t, n, limit);
      ASSERT_EQ(show(ul), show(ul_ref)) << "next_ul_tx " << at;
      const auto ctl = next_dl_control(*cfg, t, limit);
      const auto ctl_ref = reference::next_dl_control(*cfg, t, limit);
      ASSERT_EQ(show(ctl), show(ctl_ref)) << "next_dl_control " << at;
      const auto data = next_dl_data(*cfg, t, limit);
      const auto data_ref = reference::next_dl_data(*cfg, t, limit);
      ASSERT_EQ(show(data), show(data_ref)) << "next_dl_data " << at;
    }
  }
}

TEST(OpportunityOracleTest, WindowSpansThreeSlots) {
  // 20 UL symbols from symbol 13 of slot 0: the window covers the last
  // symbol of slot 0, all of slot 1 and five symbols of slot 2.
  const FddConfig c{kMu2};
  const auto w = next_ul_tx(c, kSym * 13, 20);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSym * 13);
  EXPECT_EQ(w->end, kSlot * 2 + kSym * 5);
  EXPECT_EQ(show(w), show(reference::next_ul_tx(c, kSym * 13, 20, Nanos{40'000'000})));
}

TEST(OpportunityOracleTest, SearchLimitCutsWindowByItsLastSymbol) {
  // The window is returned only if its last symbol starts before t + limit.
  const FddConfig c{kMu2};
  EXPECT_TRUE(next_ul_tx(c, Nanos{0}, 4, kSym * 3 + Nanos{1}).has_value());
  EXPECT_FALSE(next_ul_tx(c, Nanos{0}, 4, kSym * 3).has_value());
  // The same cut across a slot boundary, with the run carried from slot 0.
  EXPECT_TRUE(next_ul_tx(c, kSym * 12, 4, kSlot - kSym * 11 + Nanos{1}).has_value());
  EXPECT_FALSE(next_ul_tx(c, kSym * 12, 4, kSlot - kSym * 11).has_value());
}

}  // namespace
}  // namespace u5g
