// Tests for the ping-journey composition (Figs 2-3).

#include <gtest/gtest.h>

#include "core/journey.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

JourneyParams realistic() {
  JourneyParams p;
  p.ran.sender_processing = 50_us;
  p.ran.receiver_processing = 80_us;
  p.ran.radio_tx = 30_us;
  p.ran.radio_rx = 40_us;
  p.ran.sr_decode = 20_us;
  p.ran.grant_decode = 60_us;
  return p;
}

TEST(JourneyTest, RttIsSumOfParts) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  const JourneyParams p = realistic();
  const Nanos at = dddu.period() * 8 + 100_us;
  const PingJourney j = trace_ping(dddu, at, p);
  ASSERT_TRUE(j.uplink.feasible);
  ASSERT_TRUE(j.downlink.feasible);
  EXPECT_EQ(j.rtt, j.downlink.completion - at);
  // The reply enters the gNB exactly after uplink + core + turnaround + core.
  EXPECT_EQ(j.downlink.arrival,
            j.uplink.completion + j.core_uplink + j.turnaround + j.core_downlink);
  EXPECT_GT(j.rtt, j.uplink.latency() + j.downlink.latency());
}

TEST(JourneyTest, GrantFreeBeatsGrantBased) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  JourneyParams gb = realistic();
  JourneyParams gf = realistic();
  gf.grant_free = true;
  const Nanos at = dddu.period() * 8 + 100_us;
  // §7: the handshake adds roughly one TDD period to the uplink.
  const PingJourney a = trace_ping(dddu, at, gb);
  const PingJourney b = trace_ping(dddu, at, gf);
  EXPECT_GT(a.uplink.latency(), b.uplink.latency() + dddu.period() / 2);
  EXPECT_GT(a.rtt, b.rtt);
}

TEST(JourneyTest, CategoryTotalsCoverEverything) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  const PingJourney j = trace_ping(dddu, dddu.period() * 8 + Nanos{1}, realistic());
  const Nanos sum = j.category_total(LatencyCategory::Protocol) +
                    j.category_total(LatencyCategory::Processing) +
                    j.category_total(LatencyCategory::Radio);
  EXPECT_EQ(sum, j.rtt);
}

TEST(JourneyTest, ProtocolDominatesOnTdd) {
  // §4: "the protocol latency is the most significant".
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  const PingJourney j = trace_ping(dddu, dddu.period() * 8 + 100_us, realistic());
  EXPECT_GT(j.category_total(LatencyCategory::Protocol),
            j.category_total(LatencyCategory::Processing));
  EXPECT_GT(j.category_total(LatencyCategory::Protocol),
            j.category_total(LatencyCategory::Radio));
}

TEST(JourneyTest, RenderListsAllStages) {
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  const PingJourney j = trace_ping(dddu, dddu.period() * 8 + Nanos{1}, realistic());
  const std::string r = j.render();
  EXPECT_NE(r.find("ping request (uplink):"), std::string::npos);
  EXPECT_NE(r.find("core network uplink"), std::string::npos);
  EXPECT_NE(r.find("ping reply (downlink):"), std::string::npos);
  EXPECT_NE(r.find("round trip:"), std::string::npos);
}

TEST(JourneyTest, IdealisedFddPingIsSubMillisecond) {
  // The URLLC target: 1 ms round trip is attainable with the right design
  // (full duplex, grant-free, zero-cost stack).
  const FddConfig fdd{kMu2};
  JourneyParams p;
  p.grant_free = true;
  p.upf_latency = 5_us;
  p.backhaul = 10_us;
  p.server_turnaround = 1_us;
  const PingJourney j = trace_ping(fdd, fdd.period() * 8 + Nanos{1}, p);
  EXPECT_LT(j.rtt, 1_ms);
}

}  // namespace
}  // namespace u5g
