// Tests for the Table 1 builder, the design-space explorer, and the
// reliability helpers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/design_space.hpp"
#include "core/feasibility.hpp"
#include "core/reliability.hpp"
#include "serve/feasibility_service.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Table 1 builder

TEST(Table1Test, FiveColumnsThreeCells) {
  const Table1 t = build_table1();
  ASSERT_EQ(t.columns.size(), 5u);
  for (const FeasibilityColumn& col : t.columns) {
    EXPECT_EQ(col.cells.size(), 3u);
    EXPECT_FALSE(col.period_render.empty());
  }
}

TEST(Table1Test, OnlyDmViableAmongMinimalTddForBothDirections) {
  // §5's headline: "only one configuration, DM, satisfies the latency
  // requirements of URLLC on both downlink and uplink for the grant-free
  // scenario" — among the minimal TDD Common Configurations.
  const Table1 t = build_table1();
  int viable_tdd = 0;
  std::string which;
  for (const FeasibilityColumn& col : t.columns) {
    if (col.config_name.find("TDD-Common") == std::string::npos) continue;
    const bool both = col.cell(AccessMode::GrantFreeUl).meets_deadline &&
                      col.cell(AccessMode::Downlink).meets_deadline;
    if (both) {
      ++viable_tdd;
      which = col.config_name;
    }
  }
  EXPECT_EQ(viable_tdd, 1);
  EXPECT_EQ(which, "TDD-Common(DM)");
}

TEST(Table1Test, MiniSlotCarriesStandardsCaveat) {
  const Table1 t = build_table1();
  bool found = false;
  for (const FeasibilityColumn& col : t.columns) {
    if (col.config_name.find("MiniSlot") != std::string::npos) {
      EXPECT_TRUE(col.standards_caveat);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Table1Test, UnknownModeThrows) {
  const Table1 t = build_table1();
  EXPECT_NO_THROW((void)t.columns.front().cell(AccessMode::Downlink));
}

TEST(Table1Test, LooserDeadlineFlipsVerdicts) {
  // At a 1 ms one-way deadline even DU's downlink (worst 0.75 ms) passes.
  const Table1 loose = build_table1(1_ms);
  for (const FeasibilityColumn& col : loose.columns) {
    if (col.config_name == "TDD-Common(DU)") {
      EXPECT_TRUE(col.cell(AccessMode::Downlink).meets_deadline);
    }
  }
}

TEST(Table1Test, TighterDeadlineKillsEverything) {
  // 50 µs one-way: nothing slot-based survives (even mini-slot needs ~70 µs).
  const Table1 tight = build_table1(Nanos{50'000});
  for (const FeasibilityColumn& col : tight.columns) {
    for (const FeasibilityCell& cell : col.cells) {
      EXPECT_FALSE(cell.meets_deadline) << col.config_name;
    }
  }
}

bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

TEST(Table1Test, ColumnsFollowTable1Configs) {
  // One column per table1_configs() entry, in order, each with its cells in
  // GrantBasedUl, GrantFreeUl, Downlink order.
  const Table1 t = build_table1();
  const auto cfgs = table1_configs();
  ASSERT_EQ(t.columns.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const FeasibilityColumn& col = t.columns[i];
    EXPECT_EQ(col.config_name, cfgs[i]->name());
    EXPECT_EQ(col.period_render, cfgs[i]->render_period());
    ASSERT_EQ(col.cells.size(), 3u);
    EXPECT_EQ(col.cells[0].mode, AccessMode::GrantBasedUl);
    EXPECT_EQ(col.cells[1].mode, AccessMode::GrantFreeUl);
    EXPECT_EQ(col.cells[2].mode, AccessMode::Downlink);
  }
}

TEST(Table1Test, CellsAreTheOfflineWorstCaseAgainstTheDeadline) {
  // The batched service answers equal the offline analysis cell by cell,
  // and a cell meets the deadline iff its worst case is feasible and fits.
  const Table1 t = build_table1();
  const auto cfgs = table1_configs();
  ASSERT_EQ(t.columns.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    for (const FeasibilityCell& cell : t.columns[i].cells) {
      const WorstCaseResult wc = analyze_worst_case(*cfgs[i], cell.mode, {});
      EXPECT_TRUE(same_worst_case(cell.worst_case, wc)) << cfgs[i]->name();
      EXPECT_EQ(cell.deadline, kUrllcOneWayDeadline);
      EXPECT_EQ(cell.meets_deadline, wc.feasible && wc.worst <= kUrllcOneWayDeadline)
          << cfgs[i]->name();
    }
  }
}

TEST(Table1Test, ModelParamsReachEveryCell) {
  // Non-default model parameters travel with every query of the batch: a
  // 1-symbol data transmission changes some worst cases, and each cell
  // still equals the offline analysis under the same parameters.
  LatencyModelParams p;
  p.data_tx_symbols = 1;
  const Table1 base = build_table1();
  const Table1 t = build_table1(kUrllcOneWayDeadline, p);
  const auto cfgs = table1_configs();
  ASSERT_EQ(t.columns.size(), cfgs.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    for (std::size_t j = 0; j < t.columns[i].cells.size(); ++j) {
      const FeasibilityCell& cell = t.columns[i].cells[j];
      EXPECT_TRUE(same_worst_case(cell.worst_case, analyze_worst_case(*cfgs[i], cell.mode, p)))
          << cfgs[i]->name();
      any_changed |= !same_worst_case(cell.worst_case, base.columns[i].cells[j].worst_case);
    }
  }
  EXPECT_TRUE(any_changed);
}

TEST(Table1Test, SlotFormatConfigsEvaluateThroughTheSameMachinery) {
  // The feasibility checker is config-agnostic: TS 38.213 slot-format
  // sequences slot directly in. Format 28 (DDDDDDDDDDDDFU) gives every slot
  // one UL symbol — grant-free UL becomes per-slot cheap while DL keeps the
  // full-slot cost.
  const auto alternating = std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{28});
  // One UL symbol per slot: data transmissions must fit one symbol (the
  // default 2-symbol transmission has no contiguous window here).
  LatencyModelParams p;
  p.data_tx_symbols = 1;
  FeasibilityService& service = FeasibilityService::shared();
  const FeasibilityVerdict gf =
      service.query(FeasibilityQuery::analytic(alternating, AccessMode::GrantFreeUl, 500_us, p));
  EXPECT_TRUE(gf.meets_deadline);
  // Worst case for 1-symbol-per-slot UL: just under two slots.
  EXPECT_LT(analyze_worst_case(*alternating, AccessMode::GrantFreeUl, p).worst, 510_us);

  // A DL-only sequence is infeasible for uplink and says so.
  const auto dl_only = std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{0});
  const FeasibilityVerdict ul =
      service.query(FeasibilityQuery::analytic(dl_only, AccessMode::GrantFreeUl, 500_us));
  EXPECT_FALSE(ul.meets_deadline);
  EXPECT_FALSE(ul.worst_case.feasible);
  const FeasibilityVerdict dl =
      service.query(FeasibilityQuery::analytic(dl_only, AccessMode::Downlink, 500_us));
  EXPECT_TRUE(dl.meets_deadline);
}

// ---------------------------------------------------------------------------
// Design space

TEST(DesignSpaceTest, EnumeratesFr1Candidates) {
  const auto all = explore_design_space({});
  // µ0: mini-slot + FDD only (no 2-slot 0.5 ms pattern) = 2 configs x 2 UL
  // modes; µ1: same; µ2: 5 configs x 2 modes. Total 2*2 + 2*2 + 5*2 = 18.
  EXPECT_EQ(all.size(), 18u);
}

TEST(DesignSpaceTest, ViableSetIsSmallAndContainsDmGrantFree) {
  const auto viable = viable_designs({});
  EXPECT_FALSE(viable.empty());
  EXPECT_LT(viable.size(), 10u);  // "the set of possible system designs is quite limited"
  bool dm_gf = false;
  for (const DesignPoint& pt : viable) {
    EXPECT_LE(pt.worst_ul, kUrllcOneWayDeadline);
    EXPECT_LE(pt.worst_dl, kUrllcOneWayDeadline);
    if (pt.config_name == "TDD-Common(DM)" && pt.ul_mode == AccessMode::GrantFreeUl) dm_gf = true;
  }
  EXPECT_TRUE(dm_gf);
}

TEST(DesignSpaceTest, NoMu0Or1SlotBasedPointSurvives) {
  // §5: "only the 0.25 ms slot duration can feasibly achieve the URLLC
  // requirements" among slot-based FR1 options (mini-slot is sub-slot).
  for (const DesignPoint& pt : viable_designs({})) {
    if (pt.config_name.find("MiniSlot") != std::string::npos) continue;
    EXPECT_EQ(pt.mu, 2) << pt.config_name;
  }
}

TEST(DesignSpaceTest, FddFlaggedUnavailableToPrivate5g) {
  for (const DesignPoint& pt : explore_design_space({})) {
    EXPECT_EQ(pt.available_to_private_5g, pt.config_name != "FDD") << pt.config_name;
  }
}

TEST(DesignSpaceTest, ProcessingBudgetIsOneSlot) {
  for (const DesignPoint& pt : explore_design_space({})) {
    EXPECT_EQ(pt.processing_radio_budget, Numerology{pt.mu}.slot_duration());
  }
}

// ---------------------------------------------------------------------------
// Reliability

TEST(ReliabilityTest, CleanSamplesMeetTargets) {
  SampleSet s;
  for (int i = 0; i < 100'000; ++i) s.add(100.0);  // all at 100 µs
  const auto r = evaluate_reliability(s, 100'000, 500_us);
  EXPECT_DOUBLE_EQ(r.fraction_within, 1.0);
  EXPECT_TRUE(r.meets_urllc);
  EXPECT_TRUE(r.meets_strict);
  EXPECT_DOUBLE_EQ(r.nines, 9.0);
}

TEST(ReliabilityTest, LossChargedAgainstReliability) {
  SampleSet s;
  for (int i = 0; i < 9'999; ++i) s.add(100.0);
  // One of 10'000 offered packets was never delivered.
  const auto r = evaluate_reliability(s, 10'000, 500_us);
  EXPECT_NEAR(r.fraction_within, 0.9999, 1e-9);
  EXPECT_TRUE(r.meets_urllc);
  EXPECT_FALSE(r.meets_strict);
  EXPECT_NEAR(r.nines, 4.0, 0.01);
}

TEST(ReliabilityTest, LateDeliveriesCount) {
  SampleSet s;
  for (int i = 0; i < 96; ++i) s.add(100.0);
  for (int i = 0; i < 4; ++i) s.add(10'000.0);  // delivered but late
  const auto r = evaluate_reliability(s, 100, 500_us);
  EXPECT_NEAR(r.fraction_within, 0.96, 1e-12);
  EXPECT_FALSE(r.meets_urllc);
}

TEST(ReliabilityTest, NinesClamps) {
  EXPECT_DOUBLE_EQ(reliability_nines(0.0), 0.0);
  EXPECT_DOUBLE_EQ(reliability_nines(1.0), 9.0);
  EXPECT_NEAR(reliability_nines(0.999), 3.0, 1e-9);
  // The paper's targets.
  EXPECT_NEAR(reliability_nines(kUrllcReliabilityTarget), 4.0, 1e-6);
  EXPECT_NEAR(reliability_nines(kUrllcStrictReliability), 5.0, 1e-6);
}

TEST(ReliabilityTest, EmptyOffered) {
  SampleSet s;
  const auto r = evaluate_reliability(s, 0, 500_us);
  EXPECT_DOUBLE_EQ(r.fraction_within, 0.0);
  EXPECT_FALSE(r.meets_urllc);
}

}  // namespace
}  // namespace u5g
