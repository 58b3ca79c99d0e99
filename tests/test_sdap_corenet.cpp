// Unit tests for src/sdap (QoS model, SDAP entity) and src/corenet (GTP-U,
// UPF).

#include <gtest/gtest.h>

#include "corenet/gtpu.hpp"
#include "corenet/upf.hpp"
#include "sdap/qos.hpp"
#include "sdap/sdap_entity.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// QoS

TEST(QosTest, UrllcRowIsDelayCritical) {
  const FiveQi q = urllc_five_qi();
  EXPECT_EQ(q.value, 85);
  EXPECT_EQ(q.resource, ResourceType::DelayCriticalGBR);
  EXPECT_EQ(q.packet_delay_budget, 5_ms);
  EXPECT_DOUBLE_EQ(q.packet_error_rate, 1e-5);  // the paper's 99.999 %
}

TEST(QosTest, DefaultRowIsBestEffortFiveQi9) {
  // A default FiveQi is the 5QI 9 row (buffered video, web): non-GBR, with
  // a delay budget far looser than the URLLC row's and a lower priority.
  const FiveQi d{};
  EXPECT_EQ(d.value, 9);
  EXPECT_EQ(d.resource, ResourceType::NonGBR);
  EXPECT_EQ(d.packet_delay_budget, 300_ms);
  const FiveQi u = urllc_five_qi();
  EXPECT_LT(u.packet_delay_budget, d.packet_delay_budget);
  EXPECT_LT(u.priority, d.priority);  // lower value = higher priority
}

// ---------------------------------------------------------------------------
// SDAP

TEST(SdapTest, EncapDecapRoundTrip) {
  SdapEntity sdap;
  sdap.configure_flow(5, BearerId{1}, urllc_five_qi());
  ByteBuffer b(10, 0xEE);
  sdap.encapsulate(b, 5);
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(sdap.decapsulate(b), 5);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.bytes()[0], 0xEE);
}

TEST(SdapTest, UnconfiguredFlowThrows) {
  SdapEntity sdap;
  ByteBuffer b(10);
  EXPECT_THROW(sdap.encapsulate(b, 7), std::invalid_argument);
}

TEST(SdapTest, FlowMappings) {
  // Every configured QFI, the 6-bit extremes included, is accepted; any
  // other is refused, and a QFI past 6 bits cannot be configured.
  SdapEntity sdap;
  sdap.configure_flow(0, BearerId{10}, FiveQi{});  // 5QI 9
  sdap.configure_flow(63, BearerId{20}, urllc_five_qi());
  for (const std::uint8_t qfi : {std::uint8_t{0}, std::uint8_t{63}}) {
    ByteBuffer b(4);
    sdap.encapsulate(b, qfi);
    EXPECT_EQ(sdap.decapsulate(b), qfi);
  }
  ByteBuffer b(4);
  EXPECT_THROW(sdap.encapsulate(b, 1), std::invalid_argument);
  EXPECT_THROW(sdap.encapsulate(b, 64), std::invalid_argument);
  EXPECT_THROW(sdap.configure_flow(64, BearerId{1}, FiveQi{}), std::invalid_argument);
  EXPECT_EQ(b.size(), 4u) << "a refused SDU keeps its bytes";
}

TEST(SdapTest, QfiIsSixBits) {
  const SdapHeader h{63};
  EXPECT_EQ(SdapHeader::decode(h.encode()).qfi, 63);
  const SdapHeader overflow{static_cast<std::uint8_t>(64 | 5)};
  EXPECT_EQ(overflow.encode(), 5);  // top bits masked
}

// ---------------------------------------------------------------------------
// GTP-U

TEST(GtpuTest, EncapDecapRoundTrip) {
  ByteBuffer b(40, 0x12);
  gtpu_encapsulate(b, 0xCAFE);
  EXPECT_EQ(b.size(), 48u);
  const auto h = gtpu_decapsulate(b);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->teid, 0xCAFEu);
  EXPECT_EQ(h->length, 40);
  EXPECT_EQ(b.size(), 40u);
  EXPECT_EQ(b.bytes()[0], 0x12);
}

TEST(GtpuTest, RejectsBadVersion) {
  ByteBuffer b(40);
  gtpu_encapsulate(b, 1);
  b.bytes()[0] = 0x20;  // wrong version/PT
  EXPECT_FALSE(gtpu_decapsulate(b).has_value());
}

TEST(GtpuTest, RejectsTruncation) {
  ByteBuffer tiny(4);
  EXPECT_FALSE(gtpu_decapsulate(tiny).has_value());
}

TEST(GtpuTest, RejectsLengthMismatch) {
  ByteBuffer b(40);
  gtpu_encapsulate(b, 1);
  b.truncate_back(5);  // payload shorter than the header claims
  EXPECT_FALSE(gtpu_decapsulate(b).has_value());
}

// ---------------------------------------------------------------------------
// UPF

TEST(UpfTest, UplinkKnownSession) {
  Upf upf{UpfParams::dedicated_urllc(), Rng{1}};
  upf.bind_session(7, 100);
  ByteBuffer b(30, 0x44);
  gtpu_encapsulate(b, 7);
  const auto latency = upf.process_uplink(b);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(latency->count(), 0);
  EXPECT_EQ(b.size(), 30u);  // tunnel stripped
}

TEST(UpfTest, UplinkUnknownTeidDropped) {
  Upf upf{UpfParams::dedicated_urllc(), Rng{1}};
  ByteBuffer b(30);
  gtpu_encapsulate(b, 99);
  EXPECT_FALSE(upf.process_uplink(b).has_value());
}

TEST(UpfTest, DownlinkWrapsForTunnel) {
  Upf upf{UpfParams::dedicated_urllc(), Rng{1}};
  upf.bind_session(7, 100);
  ByteBuffer b(30, 0x13);
  const Nanos latency = upf.process_downlink(b, 7);
  EXPECT_GT(latency.count(), 0);
  const auto h = gtpu_decapsulate(b);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->teid, 7u);
}

TEST(UpfTest, SharedCoreQueuesBehindEmbb) {
  // §9 "URLLC in the 5G Core": a shared core adds queuing that a dedicated
  // one does not.
  Upf dedicated{UpfParams::dedicated_urllc(), Rng{5}};
  Upf shared{UpfParams{.embb_load = 0.5}, Rng{5}};
  double ded_sum = 0.0;
  double shr_sum = 0.0;
  for (int i = 0; i < 3000; ++i) {
    ByteBuffer a(20);
    ByteBuffer b(20);
    ded_sum += static_cast<double>(dedicated.process_downlink(a, 1).count());
    shr_sum += static_cast<double>(shared.process_downlink(b, 1).count());
  }
  EXPECT_GT(shr_sum, ded_sum * 2.0);
}

}  // namespace
}  // namespace u5g
