// Unit tests for src/tdd: Common Configuration validation and direction
// maps, Slot Format table, Mini-Slot, FDD, the render helpers, the 14-bit
// slot-mask contract and the pinned value identity.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Standard periods

TEST(TddPeriodTest, StandardSet) {
  const auto periods = standard_tdd_periods();
  ASSERT_EQ(periods.size(), 8u);
  EXPECT_EQ(periods[0], 500_us);
  EXPECT_EQ(periods[1], Nanos{625'000});
  EXPECT_EQ(periods.back(), 10_ms);
}

TEST(TddPeriodTest, ValidityDependsOnNumerology) {
  EXPECT_TRUE(is_valid_tdd_period(500_us, kMu1));   // 1 slot
  EXPECT_TRUE(is_valid_tdd_period(500_us, kMu2));   // 2 slots
  EXPECT_FALSE(is_valid_tdd_period(500_us, kMu0));  // half a slot: invalid
  EXPECT_FALSE(is_valid_tdd_period(Nanos{625'000}, kMu2));  // 2.5 slots
  EXPECT_TRUE(is_valid_tdd_period(Nanos{625'000}, kMu3));   // 5 slots
  EXPECT_FALSE(is_valid_tdd_period(Nanos{750'000}, kMu2));  // not in the set
}

// ---------------------------------------------------------------------------
// Common Configuration validation

TEST(TddCommonConfigTest, RejectsNonStandardPeriod) {
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{Nanos{300'000}, 1, 0, 0, 0}}),
               std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsOverflowingPattern) {
  // 0.5 ms at µ2 = 2 slots; 2 DL + 1 UL does not fit.
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 2, 0, 0, 1}}), std::invalid_argument);
  // Mixed slot needs its own slot on top of D and U.
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 1, 4, 4, 1}}), std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsMixedSlotWithoutGuard) {
  // 14 DL+UL symbols leave no guard symbol (§2: guard is mandatory).
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 1, 7, 7, 0}}), std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsNegativeAndOversizeFields) {
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, -1, 0, 0, 1}}), std::invalid_argument);
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 0, 14, 0, 1}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The paper's configurations

TEST(TddCommonConfigTest, DuMap) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  EXPECT_EQ(c.period_slots(), 2);
  EXPECT_EQ(c.render_period(), "DDDDDDDDDDDDDD|UUUUUUUUUUUUUU");
  EXPECT_EQ(c.name(), "TDD-Common(DU)");
}

TEST(TddCommonConfigTest, DmMap) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  EXPECT_EQ(c.render_period(), "DDDDDDDDDDDDDD|DDDD--UUUUUUUU");
  // Slot 1 is the mixed slot: DL head, guard, UL tail.
  EXPECT_TRUE(c.dl_capable(1, 0));
  EXPECT_TRUE(c.dl_capable(1, 3));
  EXPECT_FALSE(c.dl_capable(1, 4));
  EXPECT_FALSE(c.ul_capable(1, 5));
  EXPECT_TRUE(c.ul_capable(1, 6));
  EXPECT_TRUE(c.ul_capable(1, 13));
}

TEST(TddCommonConfigTest, MuMap) {
  const TddCommonConfig c = TddCommonConfig::mu(kMu2);
  EXPECT_EQ(c.render_period(), "DDDD--UUUUUUUU|UUUUUUUUUUUUUU");
}

TEST(TddCommonConfigTest, DdduMap) {
  const TddCommonConfig c = TddCommonConfig::dddu(kMu1);
  EXPECT_EQ(c.period_slots(), 4);
  EXPECT_EQ(c.period(), 2_ms);
  EXPECT_EQ(c.name(), "TDD-Common(DDDU)");
  for (int s : {0, 1, 2}) {
    EXPECT_TRUE(c.dl_capable(s, 0)) << s;
    EXPECT_FALSE(c.ul_capable(s, 13)) << s;
  }
  EXPECT_TRUE(c.ul_capable(3, 0));
  EXPECT_FALSE(c.dl_capable(3, 0));
}

TEST(TddCommonConfigTest, MapIsPeriodic) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
    for (SlotIndex s : {SlotIndex{0}, SlotIndex{1}}) {
      EXPECT_EQ(c.dl_capable(s, sym), c.dl_capable(s + 2 * 1000, sym));
      EXPECT_EQ(c.ul_capable(s, sym), c.ul_capable(s + 2 * 1000, sym));
      // Negative slots too (analysis can look behind t=0).
      EXPECT_EQ(c.dl_capable(s, sym), c.dl_capable(s - 2 * 1000, sym));
    }
  }
}

TEST(TddCommonConfigTest, SlotHasQueries) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  EXPECT_TRUE(c.slot_has_dl(0));
  EXPECT_FALSE(c.slot_has_ul(0));
  EXPECT_TRUE(c.slot_has_dl(1));  // mixed slot has both
  EXPECT_TRUE(c.slot_has_ul(1));
}

TEST(TddCommonConfigTest, TwoPatternConfig) {
  // DDDU + DU at µ1: total 2 ms + 1 ms = 3 ms, 6 slots.
  const TddCommonConfig c{kMu1, TddPattern{2_ms, 3, 0, 0, 1},
                          TddPattern{1_ms, 1, 0, 0, 1}};
  EXPECT_EQ(c.period_slots(), 6);
  EXPECT_EQ(c.period(), 3_ms);
  // Pattern 2 slots: slot 4 = D, slot 5 = U.
  EXPECT_TRUE(c.dl_capable(4, 0));
  EXPECT_TRUE(c.ul_capable(5, 0));
  EXPECT_EQ(c.name(), "TDD-Common(DDDU+DU)");
}

TEST(TddCommonConfigTest, MinimalPatternsNeedMu2) {
  // DU needs two slots in 0.5 ms -> impossible at µ1.
  EXPECT_THROW(TddCommonConfig::du(kMu1), std::invalid_argument);
}

TEST(TddCommonConfigTest, FlexibleSlotsInLongPattern) {
  // 2 ms at µ2 = 8 slots: 2 D + mixed + 1 U leaves 4 flexible (guard) slots.
  const TddCommonConfig c{kMu2, TddPattern{2_ms, 2, 4, 4, 1}};
  EXPECT_TRUE(c.dl_capable(0, 0));
  EXPECT_TRUE(c.dl_capable(2, 0));       // partial DL symbols
  EXPECT_FALSE(c.dl_capable(2, 4));
  EXPECT_TRUE(c.ul_capable(6, 13));      // partial UL symbols in slot before U
  EXPECT_FALSE(c.ul_capable(4, 7));      // interior flexible slot: neither
  EXPECT_FALSE(c.dl_capable(4, 7));
  EXPECT_TRUE(c.ul_capable(7, 0));
}

// ---------------------------------------------------------------------------
// Slot formats

TEST(SlotFormatTest, TableBasics) {
  ASSERT_EQ(slot_format_table().size(), 46u);
  EXPECT_EQ(slot_format(0).render(), "DDDDDDDDDDDDDD");
  EXPECT_EQ(slot_format(1).render(), "UUUUUUUUUUUUUU");
  EXPECT_EQ(slot_format(2).render(), "FFFFFFFFFFFFFF");
  EXPECT_EQ(slot_format(28).render(), "DDDDDDDDDDDDFU");
  EXPECT_THROW((void)slot_format(46), std::out_of_range);
  EXPECT_THROW((void)slot_format(-1), std::out_of_range);
}

class SlotFormatIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(SlotFormatIndexTest, SelfConsistent) {
  const SlotFormat& f = slot_format(GetParam());
  EXPECT_EQ(f.index, GetParam());
  const std::string r = f.render();
  ASSERT_EQ(r.size(), 14u);
  EXPECT_EQ(f.has_dl(), r.find('D') != std::string::npos);
  EXPECT_EQ(f.has_ul(), r.find('U') != std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, SlotFormatIndexTest, ::testing::Range(0, 46));

TEST(SlotFormatConfigTest, CyclicSequence) {
  const SlotFormatConfig c{kMu1, {0, 0, 28, 1}};  // D D (DDDDDDDDDDDDFU) U
  EXPECT_EQ(c.period_slots(), 4);
  EXPECT_TRUE(c.dl_capable(0, 5));
  EXPECT_TRUE(c.dl_capable(2, 0));
  EXPECT_FALSE(c.dl_capable(2, 12));  // flexible: conservative neither
  EXPECT_FALSE(c.ul_capable(2, 12));
  EXPECT_TRUE(c.ul_capable(2, 13));
  EXPECT_TRUE(c.ul_capable(3, 0));
  // Cycles, including for negative slot indices.
  EXPECT_TRUE(c.ul_capable(7, 0));
  EXPECT_TRUE(c.ul_capable(-1, 0));
  EXPECT_EQ(c.name(), "SlotFormat(0,0,28,1)");
}

TEST(SlotFormatConfigTest, EmptySequenceThrows) {
  EXPECT_THROW((SlotFormatConfig{kMu1, {}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mini-slot & FDD

TEST(MiniSlotTest, Granularity) {
  const MiniSlotConfig c{kMu2, 2};
  EXPECT_EQ(c.control_granularity_symbols(), 2);
  EXPECT_EQ(c.period_slots(), 1);
  EXPECT_TRUE(c.dl_capable(123, 7));
  EXPECT_TRUE(c.ul_capable(-5, 0));
}

TEST(MiniSlotTest, LengthValidation) {
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 2}));
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 4}));
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 7}));
  EXPECT_THROW((MiniSlotConfig{kMu2, 3}), std::invalid_argument);
  EXPECT_THROW((MiniSlotConfig{kMu2, 14}), std::invalid_argument);
}

TEST(MiniSlotTest, StandardsRecommendationFlag) {
  // §5: the standard targets mini-slot at slot durations >= 0.5 ms.
  EXPECT_TRUE(MiniSlotConfig(kMu2, 2).violates_standard_recommendation());
  EXPECT_FALSE(MiniSlotConfig(kMu1, 2).violates_standard_recommendation());
  EXPECT_FALSE(MiniSlotConfig(kMu0, 7).violates_standard_recommendation());
}

TEST(FddTest, FullDuplexEverywhere) {
  const FddConfig c{kMu2};
  EXPECT_TRUE(c.dl_capable(9, 9));
  EXPECT_TRUE(c.ul_capable(9, 9));
  EXPECT_EQ(c.render_period(), "XXXXXXXXXXXXXX");
}

TEST(TddCommonConfigTest, GuardSymbolsAreNeitherDlNorUl) {
  // The DL->UL switch gap is read off the masks: a guard symbol is one no
  // direction may use. DU switches at a slot boundary (no guard); DM's
  // mixed slot carries a 2-symbol guard, once per period.
  const auto guard_symbols = [](const DuplexConfig& c) {
    int n = 0;
    for (SlotIndex slot = 0; slot < c.period_slots(); ++slot) {
      const auto unused =
          static_cast<std::uint16_t>(kSlotSymbolMask & ~(c.dl_mask(slot) | c.ul_mask(slot)));
      for (int s = 0; s < kSymbolsPerSlot; ++s) n += (unused >> s) & 1;
    }
    return n;
  };
  EXPECT_EQ(guard_symbols(TddCommonConfig::du(kMu2)), 0);
  EXPECT_EQ(guard_symbols(TddCommonConfig::dm(kMu2)), 2);
  EXPECT_EQ(guard_symbols(FddConfig{kMu2}), 0);
}

// ---------------------------------------------------------------------------
// Slot-mask contract

/// Every concrete config kind, including one with a committed overlay.
std::vector<std::shared_ptr<const DuplexConfig>> every_config_kind() {
  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
  cfgs.push_back(std::make_shared<TddCommonConfig>(kMu2, TddPattern{2_ms, 2, 4, 4, 1}));
  cfgs.push_back(std::make_shared<TddCommonConfig>(kMu1, TddPattern{2_ms, 2, 6, 4, 1},
                                                   TddPattern{1_ms, 1, 0, 0, 1}));
  std::vector<int> all_formats;
  for (const SlotFormat& f : slot_format_table()) all_formats.push_back(f.index);
  cfgs.push_back(std::make_shared<SlotFormatConfig>(kMu1, all_formats));
  for (int len : {2, 4, 7}) cfgs.push_back(std::make_shared<MiniSlotConfig>(kMu1, len));
  cfgs.push_back(std::make_shared<FddConfig>(kMu0));
  auto dyn = std::make_shared<DynamicDuplexConfig>(
      std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  for (SlotIndex k = 3; k < 12; ++k) {
    dyn->commit(k, DecidedFormat{static_cast<std::uint16_t>(0x0003u << (k % 5)),
                                 static_cast<std::uint16_t>(0x3000u >> (k % 7))});
  }
  cfgs.push_back(std::move(dyn));
  return cfgs;
}

TEST(SlotMaskContractTest, MasksFitFourteenBitsAndAgreeWithSymbolQueries) {
  for (const auto& cfg : every_config_kind()) {
    for (SlotIndex slot = -60; slot < 60; ++slot) {
      const std::uint16_t dl = cfg->dl_mask(slot);
      const std::uint16_t ul = cfg->ul_mask(slot);
      EXPECT_EQ(dl & ~kSlotSymbolMask, 0) << cfg->name() << " slot " << slot;
      EXPECT_EQ(ul & ~kSlotSymbolMask, 0) << cfg->name() << " slot " << slot;
      EXPECT_EQ(cfg->slot_has_dl(slot), dl != 0);
      EXPECT_EQ(cfg->slot_has_ul(slot), ul != 0);
      for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
        EXPECT_EQ(cfg->dl_capable(slot, sym), ((dl >> sym) & 1u) != 0) << cfg->name();
        EXPECT_EQ(cfg->ul_capable(slot, sym), ((ul >> sym) & 1u) != 0) << cfg->name();
      }
    }
  }
}

TEST(SlotMaskContractTest, SlotFormatMasksFollowTheFormatTable) {
  std::vector<int> all_formats;
  for (const SlotFormat& f : slot_format_table()) all_formats.push_back(f.index);
  const SlotFormatConfig c{kMu1, all_formats};
  for (SlotIndex slot = 0; slot < c.period_slots(); ++slot) {
    const SlotFormat& f = c.format_of_slot(slot);
    for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
      const SymbolKind k = f.symbols[static_cast<std::size_t>(sym)];
      EXPECT_EQ(c.dl_capable(slot, sym), k == SymbolKind::Downlink) << f.render();
      EXPECT_EQ(c.ul_capable(slot, sym), k == SymbolKind::Uplink) << f.render();
    }
  }
}

TEST(SlotMaskContractTest, DynamicCommitRejectsBitsPastSymbolThirteen) {
  DynamicDuplexConfig dyn(std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  EXPECT_THROW(dyn.commit(0, DecidedFormat{0x4000, 0}), std::invalid_argument);
  EXPECT_THROW(dyn.commit(0, DecidedFormat{0, 0x8000}), std::invalid_argument);
  EXPECT_EQ(dyn.committed_through(), 0);  // a rejected commit leaves no trace
  EXPECT_NO_THROW(dyn.commit(0, DecidedFormat{DecidedFormat::kAllSymbols, 0}));
  EXPECT_EQ(dyn.dl_mask(0), kSlotSymbolMask);
}

// ---------------------------------------------------------------------------
// Value-identity pins: the feasibility cache keys on these words, so the
// direction-map representation may change but these may not.

struct IdentityPin {
  std::shared_ptr<const DuplexConfig> cfg;
  const char* render;
  std::vector<std::uint64_t> words;
};

TEST(ValueIdentityPinTest, RenderAndWordsAreStable) {
  const std::vector<IdentityPin> pins{
      {std::make_shared<TddCommonConfig>(TddCommonConfig::du(kMu2)),
       "DDDDDDDDDDDDDD|UUUUUUUUUUUUUU",
       {0x2, 0x2, 0xe, 0x1, 0xaaaaaaa5555555}},
      {std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)),
       "DDDDDDDDDDDDDD|DDDD--UUUUUUUU",
       {0x2, 0x2, 0xe, 0x1, 0xaaaa0555555555}},
      {std::make_shared<TddCommonConfig>(TddCommonConfig::mu(kMu2)),
       "DDDD--UUUUUUUU|UUUUUUUUUUUUUU",
       {0x2, 0x2, 0xe, 0x1, 0xaaaaaaaaaaa055}},
      {std::make_shared<MiniSlotConfig>(kMu2, 2), "XXXXXXXXXXXXXX",
       {0x2, 0x1, 0x2, 0x1, 0xfffffff}},
      {std::make_shared<FddConfig>(kMu2), "XXXXXXXXXXXXXX", {0x2, 0x1, 0xe, 0x1, 0xfffffff}},
      {std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1)),
       "DDDDDDDDDDDDDD|DDDDDDDDDDDDDD|DDDDDDDDDDDDDD|UUUUUUUUUUUUUU",
       {0x1, 0x4, 0xe, 0x1, 0x5555555555555555, 0xaaaaaaa55555}},
      {std::make_shared<TddCommonConfig>(kMu1, TddPattern{2_ms, 2, 6, 4, 1},
                                         TddPattern{1_ms, 1, 0, 0, 1}),
       "DDDDDDDDDDDDDD|DDDDDDDDDDDDDD|DDDDDD----UUUU|UUUUUUUUUUUUUU|DDDDDDDDDDDDDD|"
       "UUUUUUUUUUUUUU",
       {0x1, 0x6, 0xe, 0x1, 0x5555555555555555, 0x5555aaaaaaaaa005, 0xaaaaaaa555}},
      {std::make_shared<TddCommonConfig>(kMu2, TddPattern{2_ms, 2, 4, 4, 1}),
       "DDDDDDDDDDDDDD|DDDDDDDDDDDDDD|DDDD----------|--------------|--------------|"
       "--------------|----------UUUU|UUUUUUUUUUUUUU",
       {0x2, 0x8, 0xe, 0x1, 0x5555555555555555, 0x0, 0xa000000000000000, 0xaaaaaaaa}},
      {std::make_shared<SlotFormatConfig>(kMu1, std::vector<int>{0, 0, 28, 1}),
       "DDDDDDDDDDDDDD|DDDDDDDDDDDDDD|DDDDDDDDDDDD-U|UUUUUUUUUUUUUU",
       {0x1, 0x4, 0xe, 0x1, 0x5555555555555555, 0xaaaaaaa85555}},
      {std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{45, 34, 2, 16}),
       "DDDDDD--UUUUUU|D-UUUUUUUUUUUU|--------------|D-------------",
       {0x2, 0x4, 0xe, 0x1, 0xaaaaaa1aaa0555, 0x100000}},
  };
  for (const IdentityPin& pin : pins) {
    EXPECT_EQ(pin.cfg->render_period(), pin.render) << pin.cfg->name();
    CanonicalWords words;
    pin.cfg->append_value_words(words);
    EXPECT_EQ(std::vector<std::uint64_t>(words.words().begin(), words.words().end()), pin.words)
        << pin.cfg->name();
    EXPECT_EQ(pin.cfg->value_word_count(), pin.words.size()) << pin.cfg->name();
  }
}

}  // namespace
}  // namespace u5g
