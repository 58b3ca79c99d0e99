// Tests of the analytic latency engine — the executable form of §5.
// These encode the paper's published numbers: every Table 1 verdict, the
// Fig 4 worst cases, and structural invariants of the timelines.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/latency_model.hpp"
#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

std::unique_ptr<DuplexConfig> make_config(const std::string& name) {
  if (name == "DU") return std::make_unique<TddCommonConfig>(TddCommonConfig::du(kMu2));
  if (name == "DM") return std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  if (name == "MU") return std::make_unique<TddCommonConfig>(TddCommonConfig::mu(kMu2));
  if (name == "MiniSlot") return std::make_unique<MiniSlotConfig>(kMu2, 2);
  return std::make_unique<FddConfig>(kMu2);
}

/// Access mode as an identifier fragment, for parameterized test names.
const char* mode_tag(AccessMode m) {
  return m == AccessMode::GrantBasedUl  ? "GrantBased"
         : m == AccessMode::GrantFreeUl ? "GrantFree"
                                        : "Downlink";
}

using ConfigMode = std::tuple<const char*, AccessMode>;

std::string config_mode_name(const ::testing::TestParamInfo<ConfigMode>& info) {
  return std::string{std::get<0>(info.param)} + "_" + mode_tag(std::get<1>(info.param));
}

}  // namespace

// CMake's test discovery puts gtest's printout of each parameter into the
// ctest name. The default printer shows a string literal's address and a
// struct's raw bytes, padding included, which differ between builds; these
// printers show the values. This one is found by ADL through AccessMode.
void PrintTo(const ConfigMode& p, std::ostream* os) {
  *os << std::get<0>(p) << ' ' << mode_tag(std::get<1>(p));
}

namespace {

// ---------------------------------------------------------------------------
// Table 1: all fifteen verdicts

struct Table1Case {
  const char* config;
  AccessMode mode;
  bool paper_meets;  // Table 1's checkmark
};

void PrintTo(const Table1Case& c, std::ostream* os) {
  *os << c.config << ' ' << mode_tag(c.mode) << (c.paper_meets ? " meets" : " misses");
}

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, VerdictMatchesPaper) {
  const auto& c = GetParam();
  const auto cfg = make_config(c.config);
  const WorstCaseResult wc = analyze_worst_case(*cfg, c.mode, {});
  ASSERT_TRUE(wc.feasible);
  EXPECT_EQ(wc.worst <= kUrllcOneWayDeadline, c.paper_meets)
      << c.config << " " << to_string(c.mode) << " worst=" << wc.worst.ms() << "ms";
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable1, Table1Test,
    ::testing::Values(
        // Grant-based UL row: only Mini-slot and FDD meet the deadline.
        Table1Case{"DU", AccessMode::GrantBasedUl, false},
        Table1Case{"DM", AccessMode::GrantBasedUl, false},
        Table1Case{"MU", AccessMode::GrantBasedUl, false},
        Table1Case{"MiniSlot", AccessMode::GrantBasedUl, true},
        Table1Case{"FDD", AccessMode::GrantBasedUl, true},
        // Grant-free UL row: every configuration meets it.
        Table1Case{"DU", AccessMode::GrantFreeUl, true},
        Table1Case{"DM", AccessMode::GrantFreeUl, true},
        Table1Case{"MU", AccessMode::GrantFreeUl, true},
        Table1Case{"MiniSlot", AccessMode::GrantFreeUl, true},
        Table1Case{"FDD", AccessMode::GrantFreeUl, true},
        // DL row: DM, Mini-slot and FDD meet it; DU and MU do not.
        Table1Case{"DU", AccessMode::Downlink, false},
        Table1Case{"DM", AccessMode::Downlink, true},
        Table1Case{"MU", AccessMode::Downlink, false},
        Table1Case{"MiniSlot", AccessMode::Downlink, true},
        Table1Case{"FDD", AccessMode::Downlink, true}),
    [](const auto& info) { return std::string{info.param.config} + "_" + mode_tag(info.param.mode); });

// ---------------------------------------------------------------------------
// Fig 4: the DM worst cases

TEST(Fig4Test, DmDownlinkWorstIsExactlyHalfMs) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::Downlink, {});
  // "the worst-case latency of 0.5 ms is achieved": arrival just after the
  // M slot starts -> served in the next D slot, completing one period later.
  EXPECT_NEAR(wc.worst.ms(), 0.5, 0.001);
  EXPECT_LE(wc.worst, kUrllcOneWayDeadline);
}

TEST(Fig4Test, DmGrantFreeMeetsWithHeadroom) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::GrantFreeUl, {});
  EXPECT_LE(wc.worst, kUrllcOneWayDeadline);
  EXPECT_GT(wc.worst, 300_us);  // waiting through D + guard is real
}

TEST(Fig4Test, DmGrantBasedCrossesIntoNextPeriod) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::GrantBasedUl, {});
  // The SR/grant handshake pushes the data into the next TDD period: the
  // worst case lands between 1.5x and 2x the period.
  EXPECT_GT(wc.worst, 750_us);
  EXPECT_LT(wc.worst, 1_ms);
}

TEST(Fig4Test, WorstCaseArrivalIsJustAfterAnOpportunity) {
  // The paper's rationale: the DL worst case arrives "just after a DL slot
  // starts". Verify the attaining offset for DM DL is just after the M slot
  // boundary (the last DL service opportunity of the period).
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::Downlink, {});
  EXPECT_NEAR(wc.worst_arrival_offset.ms(), 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// Timeline invariants

class TimelineInvariantTest : public ::testing::TestWithParam<ConfigMode> {};

TEST_P(TimelineInvariantTest, StepsAreContiguousAndCategorised) {
  const auto [name, mode] = GetParam();
  const auto cfg = make_config(name);
  LatencyModelParams p;
  p.sender_processing = 20_us;
  p.receiver_processing = 30_us;
  p.radio_tx = 10_us;
  p.radio_rx = 15_us;
  p.grant_decode = 25_us;
  p.sr_decode = 12_us;

  for (Nanos offset : {Nanos{1}, Nanos{100'000}, Nanos{250'001}, Nanos{333'333}}) {
    const Timeline tl = trace_transmission(*cfg, mode, cfg->period() * 8 + offset, p);
    ASSERT_TRUE(tl.feasible);
    ASSERT_FALSE(tl.steps.empty());
    // Steps tile [arrival, completion] without gaps or overlaps.
    EXPECT_EQ(tl.steps.front().start, tl.arrival);
    EXPECT_EQ(tl.steps.back().end, tl.completion);
    for (std::size_t i = 1; i < tl.steps.size(); ++i) {
      EXPECT_EQ(tl.steps[i].start, tl.steps[i - 1].end) << "gap before step " << i;
    }
    // Category totals account for the full latency.
    const Nanos sum = tl.category_total(LatencyCategory::Protocol) +
                      tl.category_total(LatencyCategory::Processing) +
                      tl.category_total(LatencyCategory::Radio);
    EXPECT_EQ(sum, tl.latency());
    EXPECT_GE(tl.latency(), Nanos::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsModes, TimelineInvariantTest,
    ::testing::Combine(::testing::Values("DU", "DM", "MU", "MiniSlot", "FDD"),
                       ::testing::Values(AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                         AccessMode::Downlink)),
    config_mode_name);

TEST(TimelineTest, ProcessingShiftsCompletion) {
  const FddConfig fdd{kMu2};
  LatencyModelParams base;
  LatencyModelParams slow = base;
  slow.receiver_processing = 100_us;
  const Nanos at = fdd.period() * 8 + Nanos{1};
  const Timeline t0 = trace_transmission(fdd, AccessMode::Downlink, at, base);
  const Timeline t1 = trace_transmission(fdd, AccessMode::Downlink, at, slow);
  EXPECT_EQ(t1.latency() - t0.latency(), 100_us);
}

TEST(TimelineTest, RadioLatencyCostIsQuantisedToSlots) {
  // §4's bottleneck interdependency: radio latency does not add smoothly —
  // it pushes readiness past granule boundaries, so its cost arrives in
  // whole-slot quanta. From an arrival just after a slot start:
  //   10 µs of radio  -> same slot still caught: zero added latency;
  //   260 µs (> slot) -> one boundary crossed: exactly one slot added;
  //   510 µs          -> two boundaries crossed: exactly two slots added.
  const FddConfig fdd{kMu2};
  const Nanos at = fdd.period() * 8 + Nanos{1};
  auto completion_with_radio = [&](Nanos radio) {
    LatencyModelParams p;
    p.radio_tx = radio;
    return trace_transmission(fdd, AccessMode::Downlink, at, p).completion;
  };
  const Nanos base = completion_with_radio(Nanos{0});
  EXPECT_EQ(completion_with_radio(10_us) - base, Nanos::zero());
  EXPECT_EQ(completion_with_radio(260_us) - base, 250_us);
  EXPECT_EQ(completion_with_radio(510_us) - base, 500_us);
}

TEST(TimelineTest, GrantBasedContainsHandshakeSteps) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::GrantBasedUl, dm.period() * 8 + Nanos{1}, {});
  const std::string rendered = tl.render();
  EXPECT_NE(rendered.find("SR over the air"), std::string::npos);
  EXPECT_NE(rendered.find("UL grant over the air"), std::string::npos);
  EXPECT_NE(rendered.find("UL data over the air"), std::string::npos);
}

TEST(TimelineTest, RenderedStepsArePinned) {
  // Every step, label and duration of one timeline per access mode, byte for
  // byte: the recording builders must keep their exact output.
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  LatencyModelParams p;
  p.sender_processing = 20_us;
  p.receiver_processing = 30_us;
  p.radio_tx = 10_us;
  p.radio_rx = 15_us;
  p.grant_decode = 25_us;
  p.sr_decode = 12_us;
  const Nanos at = dm.period() * 8 + Nanos{1};
  EXPECT_EQ(trace_transmission(dm, AccessMode::GrantBasedUl, at, p).render(),
            "  [processing] UE stack APP\xe2\x86\x93: 0ns -> 20.000us (+20.000us)\n"
            "  [radio] UE radio TX chain: 20.000us -> 30.000us (+10.000us)\n"
            "  [protocol] wait for SR opportunity: 30.000us -> 357.141us (+327.141us)\n"
            "  [protocol] SR over the air: 357.141us -> 374.998us (+17.857us)\n"
            "  [processing] gNB SR decode (radio+PHY): 374.998us -> 401.998us (+27.000us)\n"
            "  [protocol] wait for scheduler run: 401.998us -> 499.999us (+98.001us)\n"
            "  [protocol] UL grant over the air: 499.999us -> 517.856us (+17.857us)\n"
            "  [processing] UE grant decode + prep: 517.856us -> 567.856us (+50.000us)\n"
            "  [protocol] wait for granted UL window: 567.856us -> 857.141us (+289.285us)\n"
            "  [protocol] UL data over the air: 857.141us -> 892.855us (+35.714us)\n"
            "  [radio] gNB radio RX chain: 892.855us -> 907.855us (+15.000us)\n"
            "  [processing] gNB stack MAC\xe2\x86\x91: 907.855us -> 937.855us (+30.000us)\n"
            "  total: 937.855us\n");
  EXPECT_EQ(trace_transmission(dm, AccessMode::GrantFreeUl, at, p).render(),
            "  [processing] UE stack APP\xe2\x86\x93 (SDAP/PDCP/RLC/MAC/PHY): 0ns -> 20.000us "
            "(+20.000us)\n"
            "  [radio] UE radio TX chain: 20.000us -> 30.000us (+10.000us)\n"
            "  [protocol] wait for UL opportunity: 30.000us -> 357.141us (+327.141us)\n"
            "  [protocol] UL data over the air: 357.141us -> 392.855us (+35.714us)\n"
            "  [radio] gNB radio RX chain: 392.855us -> 407.855us (+15.000us)\n"
            "  [processing] gNB stack MAC\xe2\x86\x91 (PHY/MAC/RLC/PDCP/SDAP): 407.855us -> "
            "437.855us (+30.000us)\n"
            "  total: 437.855us\n");
  EXPECT_EQ(trace_transmission(dm, AccessMode::Downlink, at, p).render(),
            "  [processing] gNB stack SDAP\xe2\x86\x93 (SDAP/PDCP/RLC): 0ns -> 20.000us "
            "(+20.000us)\n"
            "  [radio] gNB radio TX chain: 20.000us -> 30.000us (+10.000us)\n"
            "  [protocol] wait for DL slot: 30.000us -> 249.999us (+219.999us)\n"
            "  [protocol] DL data over the air: 249.999us -> 321.427us (+71.428us)\n"
            "  [radio] UE radio RX chain: 321.427us -> 336.427us (+15.000us)\n"
            "  [processing] UE stack PHY\xe2\x86\x91 (PHY..APP): 336.427us -> 366.427us "
            "(+30.000us)\n"
            "  total: 366.427us\n");
}

TEST(TimelineTest, InfeasibleConfigReported) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  const Timeline tl = trace_transmission(all_dl, AccessMode::GrantFreeUl, Nanos{1}, {});
  EXPECT_FALSE(tl.feasible);
}

// ---------------------------------------------------------------------------
// Worst-case sweep structure

class WorstCaseStructureTest : public ::testing::TestWithParam<ConfigMode> {};

TEST_P(WorstCaseStructureTest, BestLeMeanLeWorst) {
  const auto [name, mode] = GetParam();
  const auto cfg = make_config(name);
  const auto wc = analyze_worst_case(*cfg, mode, {});
  ASSERT_TRUE(wc.feasible);
  EXPECT_LE(wc.best, wc.mean);
  EXPECT_LE(wc.mean, wc.worst);
  EXPECT_GT(wc.best, Nanos::zero());
  // The reported worst offset really attains the reported worst.
  const Timeline tl =
      trace_transmission(*cfg, mode, cfg->period() * 8 + wc.worst_arrival_offset, {});
  EXPECT_EQ(tl.latency(), wc.worst);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsModes, WorstCaseStructureTest,
    ::testing::Combine(::testing::Values("DU", "DM", "MU", "MiniSlot", "FDD"),
                       ::testing::Values(AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                         AccessMode::Downlink)),
    config_mode_name);

TEST(WorstCaseTest, PeriodShiftInvariance) {
  // The sweep is anchored periods away from zero; shifting the arrival by
  // whole periods must not change the latency (stationarity).
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  for (Nanos offset : {Nanos{1}, Nanos{123'456}, Nanos{250'001}}) {
    const Timeline a =
        trace_transmission(dm, AccessMode::GrantFreeUl, dm.period() * 8 + offset, {});
    const Timeline b =
        trace_transmission(dm, AccessMode::GrantFreeUl, dm.period() * 11 + offset, {});
    EXPECT_EQ(a.latency(), b.latency()) << offset.count();
  }
}

TEST(WorstCaseTest, LongerDataTransmissionsRaiseLatency) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  LatencyModelParams one;
  one.data_tx_symbols = 1;
  LatencyModelParams four;
  four.data_tx_symbols = 4;
  EXPECT_LT(analyze_worst_case(dm, AccessMode::GrantFreeUl, one).worst,
            analyze_worst_case(dm, AccessMode::GrantFreeUl, four).worst);
}

// ---------------------------------------------------------------------------
// Differential oracle: the sweep against a reference built on the public,
// recording trace_transmission

/// The probe grid and accumulation order of analyze_worst_case, restated
/// with every probe going through trace_transmission. analyze_worst_case
/// runs the same builders with step recording off; the two must agree bit
/// for bit on all five result fields.
WorstCaseResult reference_sweep(const DuplexConfig& cfg, AccessMode mode,
                                const LatencyModelParams& p, int grid_per_symbol) {
  WorstCaseResult r;
  const SlotClock clk = cfg.clock();
  const Nanos base = cfg.period() * 8;
  const Nanos sym = clk.symbol_duration();
  double sum = 0.0;
  std::size_t n = 0;
  auto probe = [&](Nanos offset) {
    const Timeline tl = trace_transmission(cfg, mode, base + offset, p);
    if (!tl.feasible) {
      r.feasible = false;
      return;
    }
    if (tl.latency() > r.worst) {
      r.worst = tl.latency();
      r.worst_arrival_offset = offset;
    }
    r.best = std::min(r.best, tl.latency());
    sum += static_cast<double>(tl.latency().count());
    ++n;
  };
  for (int slot = 0; slot < cfg.period_slots() && r.feasible; ++slot) {
    const Nanos slot_off = clk.slot_duration() * slot;
    for (int s = 0; s < kSymbolsPerSlot && r.feasible; ++s) {
      const Nanos boundary = slot_off + sym * s;
      probe(boundary);
      probe(boundary + Nanos{1});
      for (int g = 1; g < grid_per_symbol; ++g) probe(boundary + sym * g / grid_per_symbol);
    }
  }
  if (n > 0) r.mean = Nanos{static_cast<std::int64_t>(sum / static_cast<double>(n))};
  if (r.best == Nanos::max()) r.best = Nanos::zero();
  return r;
}

void expect_matches_reference(const DuplexConfig& cfg, AccessMode mode,
                              const LatencyModelParams& p, int grid) {
  const WorstCaseResult want = reference_sweep(cfg, mode, p, grid);
  const WorstCaseResult got = analyze_worst_case(cfg, mode, p, grid);
  const std::string where = cfg.name() + " " + to_string(mode) + " grid=" +
                            std::to_string(grid) + " tx=" + std::to_string(p.data_tx_symbols) +
                            " proc=" + to_string(p.sender_processing) + "/" +
                            to_string(p.receiver_processing) + " radio=" +
                            to_string(p.radio_tx) + "/" + to_string(p.radio_rx) +
                            " decode=" + to_string(p.grant_decode) + "/" +
                            to_string(p.sr_decode);
  EXPECT_EQ(got.worst, want.worst) << where;
  EXPECT_EQ(got.best, want.best) << where;
  EXPECT_EQ(got.mean, want.mean) << where;
  EXPECT_EQ(got.worst_arrival_offset, want.worst_arrival_offset) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
}

constexpr AccessMode kAllModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                    AccessMode::Downlink};

/// Model variants: zero and non-zero processing, radio and decode times
/// (odd values, so readiness lands between symbol boundaries), each at 1, 2
/// and 4 data symbols.
std::vector<LatencyModelParams> model_variants() {
  std::vector<LatencyModelParams> out;
  for (int tx : {1, 2, 4}) {
    LatencyModelParams zero;
    zero.data_tx_symbols = tx;
    LatencyModelParams proc = zero;
    proc.sender_processing = Nanos{31'111};
    proc.receiver_processing = Nanos{17'003};
    LatencyModelParams radio = zero;
    radio.radio_tx = Nanos{9'999};
    radio.radio_rx = Nanos{41'234};
    LatencyModelParams decode = zero;
    decode.grant_decode = Nanos{53'071};
    decode.sr_decode = Nanos{26'789};
    LatencyModelParams all = proc;
    all.radio_tx = radio.radio_tx;
    all.radio_rx = radio.radio_rx;
    all.grant_decode = decode.grant_decode;
    all.sr_decode = decode.sr_decode;
    out.insert(out.end(), {zero, proc, radio, decode, all});
  }
  return out;
}

/// An overlay with committed upgrades across and beyond the swept periods:
/// extra UL symbols at the end of some slots, extra DL at the start of
/// others, uncommitted slots falling back to the DM base.
std::unique_ptr<DynamicDuplexConfig> dynamic_overlay() {
  auto base = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  auto dyn = std::make_unique<DynamicDuplexConfig>(base);
  const SlotIndex slots = static_cast<SlotIndex>(base->period_slots()) * 10;
  for (SlotIndex k = 0; k < slots; ++k) {
    DecidedFormat f;
    if (k % 3 == 1) f.added_ul = 0x3000;  // symbols 12-13
    if (k % 5 == 2) f.added_dl = 0x0003;  // symbols 0-1
    dyn->commit(k, f);
  }
  return dyn;
}

/// No UL symbol at all (the all-DL base), except in the last two symbols
/// of the slot the sweep starts in: early UL probes succeed, then the sweep
/// hits an infeasible probe and stops with partial fields.
std::unique_ptr<DynamicDuplexConfig> late_ul_config() {
  auto all_dl = std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{0});
  auto late_ul = std::make_unique<DynamicDuplexConfig>(all_dl);
  const SlotIndex swept = static_cast<SlotIndex>(all_dl->period_slots()) * 8;
  for (SlotIndex k = 0; k <= swept; ++k) {
    DecidedFormat f;
    if (k == swept) f.added_ul = 0x3000;  // symbols 12-13
    late_ul->commit(k, f);
  }
  return late_ul;
}

/// An all-DL base with one UL symbol (6) in the slot the sweep starts in and
/// one (12) exactly one 40 ms search limit later. One-symbol UL arrivals
/// up to symbol 6 fit in the swept slot; later ones up to symbol 12 find no
/// UL within the search limit; still later ones reach the far symbol again.
/// The sweep must stop after the first infeasible symbol regardless.
std::unique_ptr<DynamicDuplexConfig> gapped_ul_config() {
  auto all_dl = std::make_shared<SlotFormatConfig>(kMu2, std::vector<int>{0});
  auto gapped = std::make_unique<DynamicDuplexConfig>(all_dl);
  const SlotIndex swept = static_cast<SlotIndex>(all_dl->period_slots()) * 8;
  const SlotIndex far = swept + Nanos{40'000'000} / all_dl->numerology().slot_duration();
  DecidedFormat near_ul;
  near_ul.added_ul = 0x0040;  // symbol 6
  gapped->commit(swept, near_ul);
  DecidedFormat far_ul;
  far_ul.added_ul = 0x1000;  // symbol 12
  gapped->commit(far, far_ul);
  return gapped;
}

/// The multi-slot periods beside Table 1: DDDU at µ1 and DM at µ3.
std::vector<std::unique_ptr<DuplexConfig>> multi_slot_configs() {
  std::vector<std::unique_ptr<DuplexConfig>> out;
  out.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
  out.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu3)));
  return out;
}

/// Table 1 plus the multi-slot periods.
std::vector<std::unique_ptr<DuplexConfig>> static_configs() {
  std::vector<std::unique_ptr<DuplexConfig>> out = multi_slot_configs();
  for (const char* name : {"DU", "DM", "MU", "MiniSlot", "FDD"}) out.push_back(make_config(name));
  return out;
}

TEST(WorstCaseOracleTest, MatchesRecordingReferenceOnTable1Configs) {
  const auto variants = model_variants();
  for (const char* name : {"DU", "DM", "MU", "MiniSlot", "FDD"}) {
    const auto cfg = make_config(name);
    for (AccessMode mode : kAllModes) {
      for (int grid : {1, 4, 7}) {
        for (const LatencyModelParams& p : variants) {
          expect_matches_reference(*cfg, mode, p, grid);
        }
      }
    }
  }
}

TEST(WorstCaseOracleTest, MatchesRecordingReferenceOnMultiSlotPeriods) {
  const auto variants = model_variants();
  for (const auto& cfg : multi_slot_configs()) {
    for (AccessMode mode : kAllModes) {
      for (int grid : {1, 4, 7}) {
        for (const LatencyModelParams& p : variants) {
          expect_matches_reference(*cfg, mode, p, grid);
        }
      }
    }
  }
}

TEST(WorstCaseOracleTest, MatchesRecordingReferenceOnDynamicDuplex) {
  const auto dyn = dynamic_overlay();
  // The overlay is visible to the sweep: the added UL symbols shorten waits.
  EXPECT_LT(analyze_worst_case(*dyn, AccessMode::GrantFreeUl).mean,
            analyze_worst_case(TddCommonConfig::dm(kMu2), AccessMode::GrantFreeUl).mean);
  const auto variants = model_variants();
  for (AccessMode mode : kAllModes) {
    for (int grid : {1, 4, 7}) {
      for (const LatencyModelParams& p : variants) {
        expect_matches_reference(*dyn, mode, p, grid);
      }
    }
  }
}

TEST(WorstCaseOracleTest, MatchesRecordingReferenceWhenInfeasible) {
  // No UL symbol at all: the sweep stops after its first symbol, and the
  // partial fields it reports must match the reference too.
  const SlotFormatConfig all_dl{kMu2, {0}};
  for (AccessMode mode : {AccessMode::GrantFreeUl, AccessMode::GrantBasedUl}) {
    for (int grid : {1, 4, 7}) {
      expect_matches_reference(all_dl, mode, {}, grid);
    }
  }
  const WorstCaseResult wc = analyze_worst_case(all_dl, AccessMode::GrantFreeUl, {});
  EXPECT_FALSE(wc.feasible);

  const auto late_ul = late_ul_config();
  const WorstCaseResult partial = analyze_worst_case(*late_ul, AccessMode::GrantFreeUl, {});
  EXPECT_FALSE(partial.feasible);
  EXPECT_GT(partial.worst, Nanos::zero());
  for (int grid : {1, 4, 7}) {
    expect_matches_reference(*late_ul, AccessMode::GrantFreeUl, {}, grid);
    expect_matches_reference(*late_ul, AccessMode::GrantFreeUl, model_variants().back(), grid);
  }
  // Feasible again after the first infeasible symbol: those probes are not
  // part of the sweep.
  const auto gapped = gapped_ul_config();
  LatencyModelParams one_symbol;
  one_symbol.data_tx_symbols = 1;
  const Nanos base = gapped->period() * 8;
  const Nanos sym = gapped->clock().symbol_duration();
  auto feasible_at = [&](int symbol) {
    return trace_transmission(*gapped, AccessMode::GrantFreeUl, base + sym * symbol, one_symbol)
        .feasible;
  };
  EXPECT_TRUE(feasible_at(6));
  EXPECT_FALSE(feasible_at(7));
  EXPECT_TRUE(feasible_at(13));
  for (int grid : {1, 4, 7}) {
    expect_matches_reference(*gapped, AccessMode::GrantFreeUl, one_symbol, grid);
  }
}

TEST(WorstCaseOracleTest, MatchesRecordingReferenceOnRandomModels) {
  // Seeded random models (odd ns everywhere, so breakpoints land anywhere
  // inside a symbol) on single- and multi-slot periods, every grid 1-8.
  Rng rng(0x5eed'b7ea'4b01ULL);
  const auto cfgs = static_configs();
  auto draw = [&](std::int64_t max_ns) {
    return Nanos{static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(max_ns)))};
  };
  for (int i = 0; i < 2000; ++i) {
    LatencyModelParams p;
    p.data_tx_symbols = 1 + static_cast<int>(rng.uniform_int(7));
    p.sr_symbols = 1 + static_cast<int>(rng.uniform_int(2));
    p.sender_processing = draw(200'000);
    p.receiver_processing = draw(100'000);
    p.radio_tx = draw(40'000);
    p.radio_rx = draw(40'000);
    p.grant_decode = draw(80'000);
    p.sr_decode = draw(40'000);
    const DuplexConfig& cfg = *cfgs[rng.uniform_int(cfgs.size())];
    const AccessMode mode = kAllModes[rng.uniform_int(3)];
    expect_matches_reference(cfg, mode, p, 1 + static_cast<int>(rng.uniform_int(8)));
  }
}

TEST(WorstCaseOracleTest, RejectsGridOutsideTheAcceptedRange) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  for (int grid : {0, -1, -4, kMaxGridPerSymbol + 1}) {
    EXPECT_THROW((void)analyze_worst_case(dm, AccessMode::Downlink, {}, grid),
                 std::invalid_argument)
        << grid;
  }
  // The finest accepted grid at the shortest symbol (µ6) still sweeps in
  // arrival order, so it matches the reference too.
  const FddConfig fdd6(kMu6);
  expect_matches_reference(fdd6, AccessMode::GrantFreeUl, model_variants().back(),
                           kMaxGridPerSymbol);
}

// ---------------------------------------------------------------------------
// Monotonicity: the precondition of the sweep's constant-segment skip

/// The sweep's probe offsets within one period, in sweep order.
std::vector<Nanos> probe_offsets(const DuplexConfig& cfg, int grid_per_symbol) {
  const SlotClock clk = cfg.clock();
  const Nanos sym = clk.symbol_duration();
  std::vector<Nanos> out;
  for (int slot = 0; slot < cfg.period_slots(); ++slot) {
    for (int s = 0; s < kSymbolsPerSlot; ++s) {
      const Nanos boundary = clk.slot_duration() * slot + sym * s;
      out.push_back(boundary);
      out.push_back(boundary + Nanos{1});
      for (int g = 1; g < grid_per_symbol; ++g) out.push_back(boundary + sym * g / grid_per_symbol);
    }
  }
  return out;
}

TEST(SweepMonotonicityTest, CompletionNeverDecreasesAlongTheProbeGrid) {
  // analyze_worst_case skips the interior of any run of probes whose ends
  // complete at the same time. That is exact only if the completion never
  // decreases with the arrival while feasible, and if no infeasible probe
  // sits between two feasible probes with equal completion.
  std::vector<std::unique_ptr<DuplexConfig>> cfgs = static_configs();
  cfgs.push_back(dynamic_overlay());
  cfgs.push_back(late_ul_config());
  cfgs.push_back(gapped_ul_config());
  const auto variants = model_variants();
  for (const auto& cfg : cfgs) {
    const Nanos base = cfg->period() * 8;
    const std::vector<Nanos> offsets = probe_offsets(*cfg, 7);
    ASSERT_TRUE(std::is_sorted(offsets.begin(), offsets.end())) << cfg->name();
    for (AccessMode mode : kAllModes) {
      for (const LatencyModelParams& p : variants) {
        std::optional<Nanos> last;  // completion of the last feasible probe
        bool gap = false;           // an infeasible probe since `last`
        for (Nanos off : offsets) {
          const Timeline tl = trace_transmission(*cfg, mode, base + off, p);
          if (!tl.feasible) {
            gap = true;
            continue;
          }
          if (last) {
            EXPECT_GE(tl.completion, *last)
                << cfg->name() << " " << to_string(mode) << " offset=" << to_string(off);
            EXPECT_FALSE(gap && tl.completion == *last)
                << cfg->name() << " " << to_string(mode) << " offset=" << to_string(off);
          }
          last = tl.completion;
          gap = false;
        }
      }
    }
  }
}

}  // namespace
}  // namespace u5g
