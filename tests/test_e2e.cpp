// Integration tests of the full end-to-end system (core/e2e_system): the
// testbed reproduction, the URLLC design point, payload integrity through
// the whole stack, HARQ under loss, radio deadline misses, and the
// agreement between the event simulation and the analytic worst case.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "core/e2e_system.hpp"
#include "core/latency_model.hpp"
#include "fault/gilbert_elliott.hpp"
#include "fault/scenario.hpp"
#include "loss_identity.hpp"
#include "phy/channel.hpp"
#include "tdd/common_config.hpp"
#include "tdd/mini_slot.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

constexpr Nanos kPattern{2'000'000};  // DDDU at µ1

void offer_uniform(E2eSystem& sys, int packets, Direction dir, std::uint64_t seed,
                   Nanos spacing = kPattern * 2) {
  Rng rng(seed);
  for (int i = 0; i < packets; ++i) {
    const Nanos at = spacing * i + Nanos{static_cast<std::int64_t>(
                                        rng.uniform() * static_cast<double>(kPattern.count()))};
    if (dir == Direction::Uplink) {
      sys.send_uplink_at(at);
    } else {
      sys.send_downlink_at(at);
    }
  }
}

// ---------------------------------------------------------------------------
// Delivery and latency bands

TEST(E2eTest, TestbedDeliversEverything) {
  E2eSystem sys(StackConfig::testbed_grant_based(1));
  offer_uniform(sys, 200, Direction::Uplink, 2);
  offer_uniform(sys, 200, Direction::Downlink, 3);
  sys.run_until(kPattern * 2 * 220);
  EXPECT_EQ(sys.latency_samples_us(Direction::Uplink).count(), 200u);
  EXPECT_EQ(sys.latency_samples_us(Direction::Downlink).count(), 200u);
}

TEST(E2eTest, TestbedLatencyBandsMatchFig6) {
  // Fig 6's bands: DL ~1.3-3.2 ms; grant-based UL ~2-7 ms.
  E2eSystem sys(StackConfig::testbed_grant_based(4));
  offer_uniform(sys, 400, Direction::Uplink, 5);
  offer_uniform(sys, 400, Direction::Downlink, 6);
  sys.run_until(kPattern * 2 * 420);
  auto dl = sys.latency_samples_us(Direction::Downlink);
  auto ul = sys.latency_samples_us(Direction::Uplink);
  EXPECT_GT(dl.mean(), 1'000.0);
  EXPECT_LT(dl.mean(), 3'000.0);
  EXPECT_GT(ul.mean(), 2'000.0);
  EXPECT_LT(ul.mean(), 7'000.0);
  EXPECT_GT(ul.mean(), dl.mean());  // §7: "the latency is much bigger than the DL"
}

TEST(E2eTest, GrantFreeSavesAboutOnePattern) {
  // §7 / Fig 6: grant-free removes the SR+grant handshake, ~one TDD period.
  E2eSystem gb(StackConfig::testbed_grant_based(7));
  E2eSystem gf(StackConfig::testbed_grant_free(7));
  offer_uniform(gb, 300, Direction::Uplink, 8);
  offer_uniform(gf, 300, Direction::Uplink, 8);
  gb.run_until(kPattern * 2 * 320);
  gf.run_until(kPattern * 2 * 320);
  const double gap_us =
      gb.latency_samples_us(Direction::Uplink).mean() - gf.latency_samples_us(Direction::Uplink).mean();
  EXPECT_GT(gap_us, 1'000.0);
  EXPECT_LT(gap_us, 3'500.0);
}

TEST(E2eTest, UrllcDesignMeetsMillisecondClassLatency) {
  E2eSystem sys(StackConfig::urllc_design(9));
  Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    sys.send_uplink_at(1_ms * (2 * i) + Nanos{static_cast<std::int64_t>(rng.uniform() * 5e5)});
    sys.send_downlink_at(1_ms * (2 * i + 1) +
                         Nanos{static_cast<std::int64_t>(rng.uniform() * 5e5)});
  }
  sys.run_until(1_ms * 650);
  auto ul = sys.latency_samples_us(Direction::Uplink);
  auto dl = sys.latency_samples_us(Direction::Downlink);
  ASSERT_EQ(ul.count(), 300u);
  ASSERT_EQ(dl.count(), 300u);
  EXPECT_LT(ul.quantile(0.99), 1'000.0);  // sub-ms uplink p99
  EXPECT_LT(dl.quantile(0.99), 1'500.0);
}

// ---------------------------------------------------------------------------
// Table 2 emergence

TEST(E2eTest, RlcQueueWaitEmerges) {
  E2eSystem sys(StackConfig::testbed_grant_based(11));
  offer_uniform(sys, 500, Direction::Downlink, 12);
  sys.run_until(kPattern * 2 * 520);
  const RunningStats q = sys.rlc_queue_stats_us();
  ASSERT_EQ(q.count(), 500u);
  // The paper measures 484 µs; the emergent value is geometry-driven.
  EXPECT_GT(q.mean(), 300.0);
  EXPECT_LT(q.mean(), 700.0);
}

TEST(E2eTest, LayerStatsMatchCalibration) {
  E2eSystem sys(StackConfig::testbed_grant_based(13));
  offer_uniform(sys, 400, Direction::Uplink, 14);
  offer_uniform(sys, 400, Direction::Downlink, 15);
  sys.run_until(kPattern * 2 * 420);
  EXPECT_NEAR(sys.gnb_layer_stats_us(Layer::MAC).mean(), 55.21, 8.0);
  EXPECT_NEAR(sys.gnb_layer_stats_us(Layer::PHY).mean(), 41.55, 6.0);
  EXPECT_NEAR(sys.gnb_layer_stats_us(Layer::PDCP).mean(), 8.29, 2.0);
}

// ---------------------------------------------------------------------------
// Loss, HARQ, radio deadlines

TEST(E2eTest, ChannelLossRecoveredByHarq) {
  StackConfig cfg = StackConfig::testbed_grant_free(16);
  cfg.channel_loss = 0.1;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 300, Direction::Uplink, 17);
  offer_uniform(sys, 300, Direction::Downlink, 18);
  sys.run_until(kPattern * 2 * 330);
  // With 4 HARQ attempts at 10 % loss, residual loss is ~1e-4.
  EXPECT_GE(sys.latency_samples_us(Direction::Uplink).count(), 298u);
  EXPECT_GE(sys.latency_samples_us(Direction::Downlink).count(), 298u);
  // Some packets took more than one attempt and it shows in the record.
  int multi = 0;
  for (const PacketRecord& r : sys.records()) multi += r.harq_transmissions > 1 ? 1 : 0;
  EXPECT_GT(multi, 10);
}

TEST(E2eTest, MacBacklogScansTheSoAPoolRows) {
  // mac_backlog() tallies the per-UE MAC state (SR latch, configured-grant
  // service, HARQ retransmission queue) of every tracked UE. Quiesced after
  // a loss-free run, every backlog gauge must be back at idle; mid-run with
  // pending traffic the gauges must be internally consistent.
  StackConfig cfg = StackConfig::testbed_grant_free(21);
  cfg.num_ues = 4;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 40, Direction::Uplink, 22);
  sys.run_until(kPattern * 2 * 50);
  const E2eSystem::MacBacklog idle = sys.mac_backlog();
  EXPECT_EQ(0u, idle.sr_pending) << "no SR may stay latched after the run drains";
  EXPECT_EQ(0u, idle.retx_ues);
  EXPECT_EQ(0u, idle.retx_tbs);

  // Under loss, the retx gauges must agree with each other at any instant:
  // a UE counted in retx_ues contributes at least one TB.
  StackConfig lossy = StackConfig::testbed_grant_free(23);
  lossy.channel_loss = 0.3;
  E2eSystem sys2(std::move(lossy));
  offer_uniform(sys2, 100, Direction::Uplink, 24);
  bool saw_retx = false;
  for (int step = 1; step <= 100; ++step) {
    sys2.run_until(kPattern * 2 * step);
    const E2eSystem::MacBacklog b = sys2.mac_backlog();
    EXPECT_GE(b.retx_tbs, b.retx_ues);
    saw_retx = saw_retx || b.retx_ues > 0;
  }
  EXPECT_TRUE(saw_retx) << "30% loss must surface a HARQ retx backlog at some slot";
}

TEST(E2eTest, RejectsInvalidStackConfig) {
  // Each bound throws instead of being clamped; both edges are accepted.
  const auto build = [](auto edit) {
    StackConfig cfg = StackConfig::testbed_grant_based(1);
    edit(cfg);
    E2eSystem sys(std::move(cfg));
  };
  EXPECT_THROW(build([](StackConfig& c) { c.duplex = nullptr; }), std::invalid_argument);
  EXPECT_THROW(build([](StackConfig& c) { c.num_ues = 0; }), std::invalid_argument);
  EXPECT_THROW(build([](StackConfig& c) { c.harq_max_tx = 0; }), std::invalid_argument);
  EXPECT_THROW(build([](StackConfig& c) { c.channel_loss = std::nextafter(0.0, -1.0); }),
               std::invalid_argument);
  EXPECT_THROW(build([](StackConfig& c) { c.channel_loss = std::nextafter(1.0, 2.0); }),
               std::invalid_argument);
  EXPECT_THROW(
      build([](StackConfig& c) { c.channel_loss = std::numeric_limits<double>::quiet_NaN(); }),
      std::invalid_argument);

  EXPECT_NO_THROW(build([](StackConfig& c) { c.num_ues = 1; }));
  EXPECT_NO_THROW(build([](StackConfig& c) { c.harq_max_tx = 1; }));
  EXPECT_NO_THROW(build([](StackConfig& c) { c.channel_loss = 0.0; }));
  EXPECT_NO_THROW(build([](StackConfig& c) { c.channel_loss = 1.0; }));
}

TEST(E2eTest, MacBacklogCountsEachUeOnce) {
  // Two of four UEs get one grant-based UL packet each at the same instant.
  // At every event the SR gauge counts UEs, not packets or events: it never
  // exceeds the two UEs with traffic, and it sees both latched at once.
  StackConfig cfg = StackConfig::testbed_grant_based(25);
  cfg.num_ues = 4;
  E2eSystem sys(std::move(cfg));
  sys.send_uplink_at(Nanos{100'000}, 0);
  sys.send_uplink_at(Nanos{100'000}, 2);
  std::size_t max_sr = 0;
  while (sys.simulator().now() < 20_ms && sys.simulator().step()) {
    const E2eSystem::MacBacklog b = sys.mac_backlog();
    EXPECT_LE(b.sr_pending, 2u);
    EXPECT_EQ(b.retx_ues, 0u);
    EXPECT_EQ(b.cg_armed, 0u) << "grant-based UEs never queue a configured-grant service";
    max_sr = std::max(max_sr, b.sr_pending);
  }
  EXPECT_EQ(max_sr, 2u);
  EXPECT_EQ(sys.packets_delivered(), 2u);
  EXPECT_EQ(sys.mac_backlog().sr_pending, 0u);
}

// ---------------------------------------------------------------------------
// StackConfig::validate

TEST(StackConfigTest, NamedPresetsValidate) {
  EXPECT_NO_THROW(StackConfig::testbed_grant_based().validate());
  EXPECT_NO_THROW(StackConfig::testbed_grant_free().validate());
  EXPECT_NO_THROW(StackConfig::urllc_design().validate());
}

TEST(StackConfigTest, ValidateRejectsNonPositiveCountsOfAnyMagnitude) {
  for (const int bad : {std::numeric_limits<int>::min(), -1, 0}) {
    StackConfig ues = StackConfig::testbed_grant_based();
    ues.num_ues = bad;
    EXPECT_THROW(ues.validate(), std::invalid_argument) << "num_ues=" << bad;
    StackConfig harq = StackConfig::testbed_grant_based();
    harq.harq_max_tx = bad;
    EXPECT_THROW(harq.validate(), std::invalid_argument) << "harq_max_tx=" << bad;
    StackConfig cells = StackConfig::testbed_grant_based();
    cells.num_cells = bad;
    EXPECT_THROW(cells.validate(), std::invalid_argument) << "num_cells=" << bad;
  }
  StackConfig big = StackConfig::testbed_grant_based();
  big.num_ues = 4096;
  big.harq_max_tx = 32;
  EXPECT_NO_THROW(big.validate());
}

TEST(StackConfigTest, ValidateAcceptsExactlyTheClosedUnitIntervalOfChannelLoss) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double ok : {0.0, -0.0, std::numeric_limits<double>::denorm_min(), 0.5,
                          std::nextafter(1.0, 0.0), 1.0}) {
    StackConfig c = StackConfig::testbed_grant_free();
    c.channel_loss = ok;
    EXPECT_NO_THROW(c.validate()) << "channel_loss=" << ok;
  }
  for (const double bad : {-kInf, -1.0, 1.5, kInf, -std::numeric_limits<double>::quiet_NaN()}) {
    StackConfig c = StackConfig::testbed_grant_free();
    c.channel_loss = bad;
    EXPECT_THROW(c.validate(), std::invalid_argument) << "channel_loss=" << bad;
  }
}

// ---------------------------------------------------------------------------
// The HARQ loop: transmit, wait for feedback, retransmit, give up at the
// budget. It is the one HARQ model a run has, so its contract is checked
// end to end.

TEST(E2eHarqTest, LossFreeRunNeverRetransmits) {
  E2eSystem sys(StackConfig::testbed_grant_based(31));
  offer_uniform(sys, 100, Direction::Uplink, 32);
  offer_uniform(sys, 100, Direction::Downlink, 33);
  sys.run_until(kPattern * 2 * 110);
  for (const PacketRecord& r : sys.records()) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.harq_transmissions, 1);
  }
  EXPECT_EQ(sys.harq_dropped_tbs(), 0u);
  EXPECT_EQ(sys.mac_backlog().retx_tbs, 0u);
  expect_loss_identity(sys, 200);
}

TEST(E2eHarqTest, CertainUplinkLossDropsEveryTbAtTheBudget) {
  StackConfig cfg = StackConfig::testbed_grant_free(34);
  cfg.channel_loss = 1.0;
  cfg.harq_max_tx = 3;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 20, Direction::Uplink, 35);
  sys.run_until(kPattern * 2 * 30);
  EXPECT_EQ(sys.packets_delivered(), 0u);
  EXPECT_EQ(sys.harq_dropped_tbs(), 20u);
  EXPECT_EQ(sys.stranded_drops(), 0u);
  const E2eSystem::MacBacklog b = sys.mac_backlog();
  EXPECT_EQ(b.retx_ues, 0u) << "a dropped TB must leave the retransmission queue";
  EXPECT_EQ(b.retx_tbs, 0u);
  expect_loss_identity(sys, 20);
}

TEST(E2eHarqTest, CertainDownlinkLossDropsEveryTbAtTheBudget) {
  StackConfig cfg = StackConfig::testbed_grant_based(36);
  cfg.channel_loss = 1.0;
  cfg.harq_max_tx = 3;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 20, Direction::Downlink, 37);
  sys.run_until(kPattern * 2 * 30);
  EXPECT_EQ(sys.packets_delivered(), 0u);
  EXPECT_EQ(sys.harq_dropped_tbs(), 20u);
  EXPECT_EQ(sys.stranded_drops(), 0u);
  expect_loss_identity(sys, 20);
}

TEST(E2eHarqTest, DeliveredTransmissionCountStaysWithinTheBudget) {
  StackConfig cfg = StackConfig::testbed_grant_free(38);
  cfg.channel_loss = 0.5;
  cfg.harq_max_tx = 3;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 200, Direction::Uplink, 39);
  offer_uniform(sys, 200, Direction::Downlink, 40);
  sys.run_until(kPattern * 2 * 220);
  std::array<int, 4> by_attempt{};  // delivered packets by transmissions 1..3
  for (const PacketRecord& r : sys.records()) {
    if (!r.ok) continue;
    ASSERT_GE(r.harq_transmissions, 1);
    ASSERT_LE(r.harq_transmissions, 3);
    ++by_attempt[static_cast<std::size_t>(r.harq_transmissions)];
  }
  // Each attempt succeeds with probability 1/2, so every budget slot is used.
  EXPECT_GT(by_attempt[1], by_attempt[2]);
  EXPECT_GT(by_attempt[2], by_attempt[3]);
  EXPECT_GT(by_attempt[3], 0);
  EXPECT_GT(sys.harq_dropped_tbs(), 0u);
  expect_loss_identity(sys, 400);
}

TEST(E2eHarqTest, SingleTransmissionBudgetNeverRetransmits) {
  StackConfig cfg = StackConfig::testbed_grant_based(41);
  cfg.channel_loss = 0.3;
  cfg.harq_max_tx = 1;
  E2eSystem sys(std::move(cfg));
  // Packets at least 6 ms apart: longer than one SR-grant cycle, so no UL
  // TB carries two packets and a TB drop is a packet drop.
  offer_uniform(sys, 150, Direction::Uplink, 42, kPattern * 4);
  offer_uniform(sys, 150, Direction::Downlink, 43, kPattern * 4);
  bool saw_retx = false;
  for (int step = 1; step <= 170; ++step) {
    sys.run_until(kPattern * 4 * step);
    saw_retx = saw_retx || sys.mac_backlog().retx_tbs > 0;
  }
  EXPECT_FALSE(saw_retx) << "a budget of one transmission leaves nothing to retransmit";
  for (const PacketRecord& r : sys.records()) {
    if (r.ok) {
      EXPECT_EQ(r.harq_transmissions, 1);
    }
  }
  EXPECT_GT(sys.harq_dropped_tbs(), 0u);
  expect_loss_identity(sys, 300);
}

TEST(E2eTest, RetransmissionCostsVisibleInLatency) {
  StackConfig cfg = StackConfig::testbed_grant_free(19);
  cfg.channel_loss = 0.15;
  E2eSystem sys(std::move(cfg));
  offer_uniform(sys, 400, Direction::Downlink, 20);
  sys.run_until(kPattern * 2 * 420);
  RunningStats first, retx;
  for (const PacketRecord& r : sys.records()) {
    if (!r.ok) continue;
    (r.harq_transmissions == 1 ? first : retx).add(r.latency().us());
  }
  ASSERT_GT(retx.count(), 5u);
  EXPECT_GT(retx.mean(), first.mean() + 300.0);  // ~a slot or more per recovery
}

TEST(E2eTest, TightLeadCausesRadioDeadlineMisses) {
  StackConfig cfg = StackConfig::testbed_grant_based(21);
  cfg.sched.radio_lead = Nanos{360'000};  // barely covers the USB cost
  E2eSystem tight(std::move(cfg));
  offer_uniform(tight, 400, Direction::Downlink, 22);
  tight.run_until(kPattern * 2 * 420);
  EXPECT_GT(tight.radio_deadline_misses(), 0u);

  StackConfig cfg2 = StackConfig::testbed_grant_based(21);
  cfg2.sched.radio_lead = 1_ms;
  E2eSystem loose(std::move(cfg2));
  offer_uniform(loose, 400, Direction::Downlink, 22);
  loose.run_until(kPattern * 2 * 420);
  EXPECT_EQ(loose.radio_deadline_misses(), 0u);
}

// ---------------------------------------------------------------------------
// Structural integrity

TEST(E2eTest, RecordsCarryDirectionAndOrdering) {
  E2eSystem sys(StackConfig::testbed_grant_free(23));
  sys.send_uplink_at(1_ms);
  sys.send_downlink_at(2_ms);
  sys.run_until(100_ms);
  const auto& recs = sys.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].dir, Direction::Uplink);
  EXPECT_EQ(recs[1].dir, Direction::Downlink);
  for (const PacketRecord& r : recs) {
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.delivered, r.created);
    EXPECT_EQ(r.harq_transmissions, 1);
  }
}

TEST(E2eTest, DlRecordsCarryPerLayerTimes) {
  E2eSystem sys(StackConfig::testbed_grant_based(24));
  sys.send_downlink_at(1_ms);
  sys.run_until(100_ms);
  const PacketRecord& r = sys.records().front();
  ASSERT_TRUE(r.ok);
  // The DL ingress traversal recorded SDAP/PDCP/RLC draws on the record.
  EXPECT_GT(r.gnb_layer_time[static_cast<int>(Layer::SDAP)], Nanos::zero());
  EXPECT_GT(r.gnb_layer_time[static_cast<int>(Layer::PDCP)], Nanos::zero());
  EXPECT_GT(r.gnb_layer_time[static_cast<int>(Layer::RLC)], Nanos::zero());
}

TEST(E2eTest, ReliabilityHelperConsistent) {
  E2eSystem sys(StackConfig::testbed_grant_free(25));
  offer_uniform(sys, 100, Direction::Downlink, 26);
  sys.run_until(kPattern * 2 * 120);
  EXPECT_DOUBLE_EQ(sys.reliability_at(Direction::Downlink, 100_ms), 1.0);
  EXPECT_DOUBLE_EQ(sys.reliability_at(Direction::Downlink, 1_us), 0.0);
}

TEST(E2eTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    E2eSystem sys(StackConfig::testbed_grant_based(seed));
    offer_uniform(sys, 50, Direction::Uplink, 99);
    sys.run_until(kPattern * 2 * 60);
    return sys.latency_samples_us(Direction::Uplink).mean();
  };
  EXPECT_DOUBLE_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));
}

TEST(E2eTest, MiniSlotDuplexWorksEndToEnd) {
  // The Mini-Slot configuration drives the same E2E machinery at 2-symbol
  // granularity: everything delivers, and latency beats the DM design point
  // (denser opportunities in both directions).
  StackConfig cfg = StackConfig::urllc_design(77);
  cfg.duplex = std::make_shared<MiniSlotConfig>(kMu2, 2);
  E2eSystem mini(std::move(cfg));
  E2eSystem dm(StackConfig::urllc_design(77));
  Rng rng(78);
  for (int i = 0; i < 150; ++i) {
    const Nanos at =
        1_ms * (2 * i) + Nanos{static_cast<std::int64_t>(rng.uniform() * 5e5)};
    mini.send_uplink_at(at);
    dm.send_uplink_at(at);
    mini.send_downlink_at(at + 1_ms);
    dm.send_downlink_at(at + 1_ms);
  }
  mini.run_until(1_ms * 330);
  dm.run_until(1_ms * 330);
  auto mini_ul = mini.latency_samples_us(Direction::Uplink);
  auto dm_ul = dm.latency_samples_us(Direction::Uplink);
  ASSERT_EQ(mini_ul.count(), 150u);
  ASSERT_EQ(dm_ul.count(), 150u);
  EXPECT_LT(mini_ul.mean(), dm_ul.mean());
  auto mini_dl = mini.latency_samples_us(Direction::Downlink);
  ASSERT_EQ(mini_dl.count(), 150u);
}

TEST(E2eTest, MissingDuplexThrows) {
  StackConfig cfg;  // duplex not set
  EXPECT_THROW(E2eSystem{std::move(cfg)}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Analytic agreement: the event simulation with a near-ideal stack stays
// inside the analytic envelope.

TEST(E2eAgreementTest, SimWithinAnalyticEnvelope) {
  // Near-ideal system: zero processing, zero-jitter/zero-cost radio, free
  // core network — protocol geometry is all that remains.
  StackConfig cfg;
  cfg.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1));
  cfg.grant_free = true;
  cfg.cg = ConfiguredGrantConfig::every_symbol(256, 4);
  cfg.sched = SchedulerParams::idealised();
  cfg.sched.ul_tx_symbols = 4;
  cfg.gnb_proc = ProcessingProfile::zero();
  cfg.ue_proc = ProcessingProfile::zero();
  const BusParams free_bus{"free", Nanos::zero(), Nanos::zero(), JitterParams::none()};
  cfg.gnb_radio = RadioHeadParams{free_bus, SampleRate{}, Nanos::zero(), Nanos::zero()};
  cfg.ue_radio = cfg.gnb_radio;
  cfg.phy = PhyTimingParams{Nanos::zero(), Nanos::zero(), Nanos::zero(), Nanos::zero(), 0};
  cfg.upf = UpfParams{Nanos::zero(), Nanos::zero(), 0.0, Nanos::zero()};
  cfg.seed = 30;
  E2eSystem sys(std::move(cfg));

  offer_uniform(sys, 300, Direction::Downlink, 31);
  sys.run_until(kPattern * 2 * 320);

  // The e2e radio path still has a small fixed receive floor (rx_base in
  // RadioHead); allow that as slack.
  const TddCommonConfig dddu = TddCommonConfig::dddu(kMu1);
  LatencyModelParams p;
  const auto wc = analyze_worst_case(dddu, AccessMode::Downlink, p);
  auto dl = sys.latency_samples_us(Direction::Downlink);
  ASSERT_EQ(dl.count(), 300u);
  EXPECT_LE(dl.max(), wc.worst.us() + 60.0);
  EXPECT_GE(dl.min(), wc.best.us() * 0.5);
}

// ---------------------------------------------------------------------------
// Behaviour pin: one digest over everything a run produces — every packet
// record, every loss tally, the LBT and fault counters, the MAC backlog, the
// metrics JSON (mid-run and final) and every span — across a feature matrix.
// A change to the RNG draw order, the retransmission-queue order, a span or
// a counter changes a digest. Re-pin only for an intended behaviour change.

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(Nanos t) { add(static_cast<std::uint64_t>(t.count())); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;  // FNV-1a
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Which mechanisms the matrix reached, summed over every run.
struct PinCoverage {
  std::uint64_t harq_drops = 0, retransmitted = 0, missed_grants = 0, radio_misses = 0;
  std::uint64_t punctured = 0, xlink = 0, hidden_collisions = 0, deferred = 0;
  std::uint64_t storms = 0, stalls = 0, bursts = 0, upf_drops = 0, upf_delays = 0;
};

struct PinCase {
  const char* name;
  StackConfig (*make)(std::uint64_t seed);
  double xlink_activity;  ///< neighbour DL-upgrade activity set before the run
  bool embb_bursts;       ///< extra DL bursts to UEs >= 1 (preemption victims)
  std::array<std::uint64_t, 2> digest;  ///< one per seed in kPinSeeds
};

constexpr std::array<std::uint64_t, 2> kPinSeeds = {11, 12};

StackConfig pin_iid(StackConfig c, int harq_max_tx) {
  c.channel_loss = 0.2;
  c.harq_max_tx = harq_max_tx;
  return c;
}

std::uint64_t pin_run(const PinCase& pc, std::uint64_t seed, PinCoverage& cov) {
  StackConfig cfg = pc.make(seed);
  cfg.trace.enabled = true;  // spans and metrics both on
  const int ues = std::max(cfg.num_ues, 1);
  E2eSystem sys(std::move(cfg));
  sys.set_crosslink_dl_activity(pc.xlink_activity);
  Rng rng(seed ^ 0x9196ULL);
  const auto jitter = [&rng] {
    return Nanos{static_cast<std::int64_t>(rng.uniform() * static_cast<double>(kPattern.count()))};
  };
  constexpr int kRounds = 40;
  for (int i = 0; i < kRounds; ++i) {
    const Nanos base = kPattern * (2 * i);
    for (int u = 0; u < ues; ++u) {
      sys.send_uplink_at(base + jitter(), u);
      sys.send_downlink_at(base + jitter(), u);
      if (pc.embb_bursts && u > 0) {
        for (int b = 0; b < 3; ++b) sys.send_downlink_at(base + Nanos{b}, u);
      }
    }
  }
  Digest d;
  sys.run_until(kPattern * kRounds);
  d.add(sys.metrics().to_json());
  sys.run_until(kPattern * (2 * kRounds) + 400_ms);

  for (const PacketRecord& r : sys.records()) {
    d.add(static_cast<std::uint64_t>(r.seq));
    d.add(static_cast<std::uint64_t>(r.ue));
    d.add(static_cast<std::uint64_t>(r.dir));
    d.add(r.created);
    d.add(r.delivered);
    d.add(static_cast<std::uint64_t>(r.ok));
    d.add(static_cast<std::uint64_t>(r.harq_transmissions));
    for (const Nanos t : r.gnb_layer_time) d.add(t);
    cov.retransmitted += r.ok && r.harq_transmissions > 1 ? 1 : 0;
  }
  for (const std::uint64_t v :
       {sys.packets_started(), sys.packets_delivered(), sys.harq_dropped_tbs(),
        sys.stranded_drops(), sys.pdcp_discards(), sys.punctured_retx(),
        sys.crosslink_ul_losses(), sys.radio_deadline_misses(), sys.dynamic_upgraded_slots()}) {
    d.add(v);
  }
  const LbtGate::Stats l = sys.lbt_stats();
  for (const std::uint64_t v : {l.attempts, l.deferred, l.cw_doublings, l.cw_resets,
                                l.hidden_collisions}) {
    d.add(v);
  }
  d.add(l.deferral_total);
  d.add(l.nru_airtime);
  d.add(l.wifi_overlap);
  const FaultInjector::Counters f = sys.fault_counters();
  for (const std::uint64_t v :
       {f.burst_losses, f.storm_spikes, f.bus_stalls, f.upf_drops, f.upf_delays}) {
    d.add(v);
  }
  const E2eSystem::MacBacklog b = sys.mac_backlog();
  for (const std::size_t v : {b.sr_pending, b.cg_armed, b.retx_ues, b.retx_tbs}) d.add(v);
  d.add(sys.metrics().to_json());
  for (const TraceSpan& s : sys.tracer().spans()) {
    d.add(s.name);
    d.add(static_cast<std::uint64_t>(s.category));
    d.add(static_cast<std::uint64_t>(s.seq));
    d.add(s.start);
    d.add(s.end);
  }

  cov.harq_drops += sys.harq_dropped_tbs();
  cov.missed_grants += sys.metrics().counter("mac.missed_grants").value();
  cov.radio_misses += sys.radio_deadline_misses();
  cov.punctured += sys.punctured_retx();
  cov.xlink += sys.crosslink_ul_losses();
  cov.hidden_collisions += l.hidden_collisions;
  cov.deferred += l.deferred;
  cov.storms += f.storm_spikes;
  cov.stalls += f.bus_stalls;
  cov.bursts += f.burst_losses;
  cov.upf_drops += f.upf_drops;
  cov.upf_delays += f.upf_delays;
  return d.value();
}

const PinCase kPinCases[] = {
    {"grant-based, i.i.d. loss, HARQ 1",
     [](std::uint64_t s) { return pin_iid(StackConfig::testbed_grant_based(s), 1); }, 0.0, false,
     {0xc4fb8942a3448a21ULL, 0xee2e8fffa085f4c1ULL}},
    {"grant-based, i.i.d. loss, HARQ 2",
     [](std::uint64_t s) { return pin_iid(StackConfig::testbed_grant_based(s), 2); }, 0.0, false,
     {0x648f18319c8aab97ULL, 0xebe5c36d7de0814bULL}},
    {"grant-free, i.i.d. loss, HARQ 4",
     [](std::uint64_t s) { return pin_iid(StackConfig::testbed_grant_free(s), 4); }, 0.0, false,
     {0xb596daf4708193e6ULL, 0x9a075816925c53a2ULL}},
    {"grant-free, LBT with hidden collisions",
     [](std::uint64_t s) {
       StackConfig c = StackConfig::testbed_grant_free(s);
       c.num_ues = 2;
       c.lbt.enabled = true;
       c.lbt.wifi_busy_mean = Nanos{150'000};
       c.lbt.wifi_idle_mean = Nanos{300'000};
       c.lbt.hidden_collision_loss = 0.5;
       return c;
     },
     0.0, false, {0xf31d1a396bdb5f16ULL, 0x1c75efbb54f28dedULL}},
    {"grant-based, dynamic TDD, preemption, cross-link",
     [](std::uint64_t s) {
       StackConfig c = StackConfig::testbed_grant_based(s);
       c.num_ues = 3;
       c.payload_bytes = 236;
       c.channel_loss = 0.05;
       c.dynamic_tdd.enabled = true;
       c.dynamic_tdd.preemption = true;
       c.dynamic_tdd.hold_slots = 16;
       c.dynamic_tdd.xlink_ul_bler = 0.4;
       return c;
     },
     0.6, true, {0x2d357258ade3309dULL, 0x9cb4dba0f80e2b7ULL}},
    {"grant-based, storm + bus stall + UPF outage + burst loss",
     [](std::uint64_t s) {
       StackConfig c = StackConfig::testbed_grant_based(s);
       c.harq_max_tx = 2;
       c.faults = {
           FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.15, 6.0, 0.8)),
           FaultScenario::os_jitter_storm(FaultWindow::periodic(2_ms, 3_ms, 10_ms)),
           FaultScenario::radio_bus_stall(FaultWindow::periodic(5_ms, 2_ms, 10_ms),
                                          Nanos{400'000}),
           FaultScenario::upf_outage(FaultWindow::periodic(8_ms, 2_ms, 20_ms), 0.3,
                                     Nanos{50'000})};
       return c;
     },
     0.0, false, {0x664d59d7314d93b8ULL, 0x391829776d89d032ULL}},
    {"grant-free, blockage",
     [](std::uint64_t s) {
       StackConfig c = StackConfig::testbed_grant_free(s);
       c.harq_max_tx = 3;
       c.blockage = MmWaveBlockage::Params{20_ms, 8_ms, 0.9};
       return c;
     },
     0.0, false, {0xe78bca001ec454c3ULL, 0x8a0ed8eca27824a8ULL}},
    {"grant-based, 4 UEs, i.i.d. loss, tight radio lead",
     [](std::uint64_t s) {
       StackConfig c = pin_iid(StackConfig::testbed_grant_based(s), 2);
       c.num_ues = 4;
       c.sched.radio_lead = Nanos{360'000};
       return c;
     },
     0.0, false, {0x7c4b21f740504c12ULL, 0xb299f11077166bd5ULL}},
};

TEST(E2ePinTest, FeatureMatrixDigestsArePinned) {
  PinCoverage cov;
  for (const PinCase& pc : kPinCases) {
    for (std::size_t i = 0; i < kPinSeeds.size(); ++i) {
      const std::uint64_t got = pin_run(pc, kPinSeeds[i], cov);
      EXPECT_EQ(got, pc.digest[i]) << pc.name << ", seed " << kPinSeeds[i] << ": got 0x"
                                   << std::hex << got;
    }
  }
  // The pin is only as strong as the mechanisms the matrix reaches.
  EXPECT_GT(cov.harq_drops, 0u);
  EXPECT_GT(cov.retransmitted, 0u);
  EXPECT_GT(cov.missed_grants, 0u);
  EXPECT_GT(cov.radio_misses, 0u);
  EXPECT_GT(cov.punctured, 0u);
  EXPECT_GT(cov.xlink, 0u);
  EXPECT_GT(cov.hidden_collisions, 0u);
  EXPECT_GT(cov.deferred, 0u);
  EXPECT_GT(cov.storms, 0u);
  EXPECT_GT(cov.stalls, 0u);
  EXPECT_GT(cov.bursts, 0u);
  EXPECT_GT(cov.upf_drops, 0u);
  EXPECT_GT(cov.upf_delays, 0u);
}

}  // namespace
}  // namespace u5g
