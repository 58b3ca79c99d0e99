// Unit tests for src/rlc: header codec, UM segmentation/reassembly, and the
// queue instrumentation behind Table 2's RLC-q.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "rlc/rlc_entity.hpp"
#include "rlc/rlc_pdu.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

ByteBuffer payload(std::size_t n, std::uint8_t seed = 1) {
  ByteBuffer b(n);
  auto bytes = b.bytes();
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(seed + i);
  return b;
}

bool same_bytes(const ByteBuffer& a, const ByteBuffer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.bytes()[i] != b.bytes()[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Header codec

struct HeaderCase {
  SegmentInfo si;
  std::uint16_t sn;
  std::uint16_t so;
};

std::string header_case_name(const HeaderCase& c) {
  const char* si = c.si == SegmentInfo::Complete ? "Complete"
                   : c.si == SegmentInfo::First  ? "First"
                   : c.si == SegmentInfo::Middle ? "Middle"
                                                 : "Last";
  return std::string{si} + "_sn" + std::to_string(c.sn) + "_so" + std::to_string(c.so);
}

/// The parameter as gtest prints it into the ctest name (the default
/// printer shows raw bytes, padding included).
void PrintTo(const HeaderCase& c, std::ostream* os) { *os << header_case_name(c); }

class RlcHeaderTest : public ::testing::TestWithParam<HeaderCase> {};

TEST_P(RlcHeaderTest, EncodeDecodeRoundTrip) {
  const auto& c = GetParam();
  ByteBuffer pdu = payload(5);
  RlcHeader h{c.si, c.sn, c.so};
  h.encode(pdu);
  EXPECT_EQ(pdu.size(), 5 + h.encoded_size());
  EXPECT_EQ(pdu.bytes()[0] & 0x30, 0) << "reserved bits go out as zero";

  const auto back = RlcHeader::decode(pdu);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->si, c.si);
  EXPECT_EQ(back->sn, c.sn);
  if (h.needs_so()) {
    EXPECT_EQ(back->so, c.so);
  }
  EXPECT_EQ(pdu.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RlcHeaderTest,
    ::testing::Values(HeaderCase{SegmentInfo::Complete, 0, 0},
                      HeaderCase{SegmentInfo::Complete, 4095, 0},
                      HeaderCase{SegmentInfo::First, 17, 0},
                      HeaderCase{SegmentInfo::Middle, 100, 5'000},
                      HeaderCase{SegmentInfo::Last, 2'222, 65'000}),
    [](const auto& info) { return header_case_name(info.param); });

TEST(RlcHeaderTest, TruncatedDecode) {
  ByteBuffer one(1);
  EXPECT_FALSE(RlcHeader::decode(one).has_value());
  // Middle header claims an SO but the buffer ends after the SN.
  ByteBuffer two(2);
  two.bytes()[0] = static_cast<std::uint8_t>(static_cast<int>(SegmentInfo::Middle) << 6);
  EXPECT_FALSE(RlcHeader::decode(two).has_value());
}

TEST(RlcHeaderTest, DecodeIgnoresReservedBits) {
  // Both reserved bits set: decode reads the SI and SN of the clean header.
  ByteBuffer pdu(3);
  RlcHeader{SegmentInfo::Complete, 0xABC, 0}.encode(pdu);
  pdu.bytes()[0] |= 0x30;
  const auto h = RlcHeader::decode(pdu);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->si, SegmentInfo::Complete);
  EXPECT_EQ(h->sn, 0xABC);
  EXPECT_EQ(pdu.size(), 3u);
}

// ---------------------------------------------------------------------------
// UM: complete PDUs

TEST(RlcUmTest, CompleteSduRoundTrip) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(50), 10_us);
  const auto pdu = tx.pull(100);
  ASSERT_TRUE(pdu.has_value());
  EXPECT_EQ(pdu->sdu_enqueued_at, 10_us);

  std::vector<ByteBuffer> out;
  rx.receive(std::move(const_cast<ByteBuffer&>(pdu->pdu)), [&](ByteBuffer&& s, const PacketMeta&) {
    out.push_back(std::move(s));
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(50)));
}

TEST(RlcUmTest, PullEmptyQueue) {
  RlcTx tx(RlcMode::UM);
  EXPECT_FALSE(tx.pull(100).has_value());
  EXPECT_FALSE(tx.has_data());
}

TEST(RlcUmTest, PullTooSmallGrant) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(50), Nanos{0});
  EXPECT_FALSE(tx.pull(4).has_value());  // cannot fit header + 1 byte
  EXPECT_TRUE(tx.has_data());            // data stays queued
}

TEST(RlcUmTest, QueueAccounting) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(30), 1_us);
  tx.enqueue(payload(70), 2_us);
  EXPECT_EQ(tx.queued_sdus(), 2u);
  EXPECT_EQ(tx.queued_bytes(), 100u);
  const auto first = tx.pull(200);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->sdu_enqueued_at, 1_us);
  EXPECT_EQ(tx.queued_sdus(), 1u);
  EXPECT_EQ(tx.queued_bytes(), 70u);
  const auto second = tx.pull(200);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->sdu_enqueued_at, 2_us);
}

TEST(RlcUmTest, SnAdvancesPerSdu) {
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(10), Nanos{0});
  tx.enqueue(payload(10), Nanos{0});
  const auto p1 = tx.pull(100);
  const auto p2 = tx.pull(100);
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(p2->sn, static_cast<std::uint16_t>(p1->sn + 1));
}

TEST(RlcUmTest, DiscardHeadDropsTheSduAndAPartialHeadsSn) {
  RlcTx tx(RlcMode::UM);
  EXPECT_FALSE(tx.discard_head());  // nothing queued

  // A whole head SDU never took an SN: the next SDU reuses it.
  tx.enqueue(payload(10), 1_us);
  tx.enqueue(payload(10), 2_us);
  const auto first = tx.pull(100);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(tx.discard_head());
  EXPECT_FALSE(tx.has_data());
  tx.enqueue(payload(10), 3_us);
  const auto next = tx.pull(100);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->sn, static_cast<std::uint16_t>(first->sn + 1));
  EXPECT_EQ(next->sdu_enqueued_at, 3_us);

  // A partly segmented head gives its SN up with the rest of its bytes.
  tx.enqueue(payload(60), 4_us);
  tx.enqueue(payload(10), 5_us);
  const auto segment = tx.pull(20);
  ASSERT_TRUE(segment.has_value());
  EXPECT_EQ(tx.queued_sdus(), 2u);
  EXPECT_TRUE(tx.discard_head());
  EXPECT_EQ(tx.queued_sdus(), 1u);
  EXPECT_EQ(tx.queued_bytes(), 10u);
  const auto after = tx.pull(100);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->sn, static_cast<std::uint16_t>(segment->sn + 1));
  EXPECT_EQ(after->sdu_enqueued_at, 5_us);
  EXPECT_FALSE(tx.has_data());
}

TEST(RlcUmTest, NeverRetransmits) {
  // UM has no ARQ: a pulled PDU leaves the entity for good, and the SDU it
  // carried is never offered again (HARQ below is the recovery loop).
  RlcTx tx(RlcMode::UM);
  tx.enqueue(payload(20), Nanos{0});
  const auto sent = tx.pull(64);
  ASSERT_TRUE(sent.has_value());
  EXPECT_FALSE(tx.has_data());
  EXPECT_EQ(tx.queued_bytes(), 0u);
  EXPECT_FALSE(tx.pull(64).has_value());

  tx.enqueue(payload(20, 0x40), 1_us);
  const auto next = tx.pull(64);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->sn, static_cast<std::uint16_t>(sent->sn + 1));
  EXPECT_EQ(next->sdu_enqueued_at, 1_us);
}

TEST(RlcUmTest, SnWrapsAtTwelveBits) {
  RlcTx tx(RlcMode::UM);
  for (int i = 0; i < 4097; ++i) {
    tx.enqueue(payload(4), Nanos{0});
    auto pdu = tx.pull(16);
    ASSERT_TRUE(pdu.has_value());
    const std::uint16_t want = static_cast<std::uint16_t>(i & 0x0FFF);
    ASSERT_EQ(pdu->sn, want) << "sdu " << i;
    const auto h = RlcHeader::decode(pdu->pdu);
    ASSERT_TRUE(h.has_value());
    ASSERT_EQ(h->sn, want) << "sdu " << i;
  }
}

TEST(RlcUmTest, DeliveryCarriesTheSn) {
  // Complete and reassembled SDUs both reach PDCP tagged with their RLC SN.
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(10, 0x01), Nanos{0});
  tx.enqueue(payload(100, 0x02), Nanos{0});
  std::vector<std::uint16_t> tx_sns;
  std::vector<std::uint16_t> rx_sns;
  std::vector<ByteBuffer> out;
  while (auto p = tx.pull(40)) {
    if (tx_sns.empty() || tx_sns.back() != p->sn) tx_sns.push_back(p->sn);
    rx.receive(std::move(p->pdu), [&](ByteBuffer&& s, const PacketMeta& m) {
      rx_sns.push_back(m.sn);
      out.push_back(std::move(s));
    });
  }
  ASSERT_EQ(tx_sns.size(), 2u);
  EXPECT_EQ(rx_sns, tx_sns);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(same_bytes(out[0], payload(10, 0x01)));
  EXPECT_TRUE(same_bytes(out[1], payload(100, 0x02)));
}

TEST(RlcUmTest, MalformedPduDeliversNothing) {
  RlcRx rx(RlcMode::UM);
  int delivered = 0;
  ByteBuffer runt(1);
  EXPECT_FALSE(rx.receive(std::move(runt), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; })
                   .has_value());
  // A Middle header whose SO field is cut off.
  ByteBuffer cut(2);
  cut.bytes()[0] = static_cast<std::uint8_t>(static_cast<int>(SegmentInfo::Middle) << 6);
  EXPECT_FALSE(rx.receive(std::move(cut), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; })
                   .has_value());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx.pending_reassemblies(), 0u);
}

// ---------------------------------------------------------------------------
// UM: segmentation

class SegmentationTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SegmentationTest, ReassembledEqualsOriginal) {
  const auto [sdu_size, grant] = GetParam();
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(static_cast<std::size_t>(sdu_size), 0x30), Nanos{0});

  std::vector<ByteBuffer> out;
  int pdus = 0;
  while (auto pdu = tx.pull(static_cast<std::size_t>(grant))) {
    ++pdus;
    rx.receive(std::move(pdu->pdu), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
    ASSERT_LT(pdus, 1000) << "segmentation does not terminate";
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(static_cast<std::size_t>(sdu_size), 0x30)));
  if (sdu_size + 2 > grant) {
    EXPECT_GT(pdus, 1);  // it really segmented
  }
  EXPECT_EQ(rx.pending_reassemblies(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SizesByGrants, SegmentationTest,
                         ::testing::Combine(::testing::Values(10, 64, 100, 1000, 1500),
                                            ::testing::Values(16, 40, 64, 128, 1600)));

TEST(SegmentationTest, OutOfOrderSegmentsReassemble) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x11), Nanos{0});
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));
  ASSERT_GE(pdus.size(), 3u);

  std::vector<ByteBuffer> out;
  // Deliver in reverse order.
  for (auto it = pdus.rbegin(); it != pdus.rend(); ++it) {
    rx.receive(std::move(*it), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(100, 0x11)));
}

TEST(SegmentationTest, DuplicateSegmentIgnored) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x22), Nanos{0});
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));

  std::vector<ByteBuffer> out;
  ByteBuffer dup = pdus[0];
  rx.receive(std::move(pdus[0]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  rx.receive(std::move(dup), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  for (std::size_t i = 1; i < pdus.size(); ++i) {
    rx.receive(std::move(pdus[i]), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(100, 0x22)));
}

TEST(SegmentationTest, MissingSegmentHoldsReassembly) {
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x33), Nanos{0});
  std::vector<ByteBuffer> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(p->pdu));
  ASSERT_GE(pdus.size(), 3u);

  std::vector<ByteBuffer> out;
  // Drop the middle segment.
  rx.receive(std::move(pdus.front()), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  rx.receive(std::move(pdus.back()), [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rx.pending_reassemblies(), 1u);
}

TEST(SegmentationTest, LostSegmentDoesNotBlockLaterSdus) {
  // UM reassembles per SN: an SDU with a lost segment stays pending, but
  // the SDUs behind it still deliver (no head-of-line blocking in RLC;
  // in-order delivery is PDCP's job).
  RlcTx tx(RlcMode::UM);
  RlcRx rx(RlcMode::UM);
  tx.enqueue(payload(100, 0x44), Nanos{0});
  tx.enqueue(payload(20, 0x55), Nanos{0});
  std::vector<RlcTxPdu> pdus;
  while (auto p = tx.pull(40)) pdus.push_back(std::move(*p));
  ASSERT_GE(pdus.size(), 4u);  // >= 3 segments of SDU 0, then SDU 1 whole
  ASSERT_EQ(pdus.back().sn, static_cast<std::uint16_t>(pdus.front().sn + 1));

  std::vector<ByteBuffer> out;
  for (std::size_t i = 0; i < pdus.size(); ++i) {
    if (i == 1) continue;  // a middle segment of SDU 0 is lost
    rx.receive(std::move(pdus[i].pdu),
               [&](ByteBuffer&& s, const PacketMeta&) { out.push_back(std::move(s)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(same_bytes(out[0], payload(20, 0x55)));
  EXPECT_EQ(rx.pending_reassemblies(), 1u);
}

}  // namespace
}  // namespace u5g
