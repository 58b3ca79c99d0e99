// Fault-injection subsystem (src/fault/): the Gilbert–Elliott channel
// process, scenario windows, injector determinism, every fault kind's
// end-to-end effect, the HARQ loss-recovery regressions, and the
// loss-accounting identity (loss_identity.hpp) that makes silent packet loss
// impossible, for UL grant-based, UL grant-free and DL.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/e2e_system.hpp"
#include "core/reliability.hpp"
#include "core/repetition.hpp"
#include "fault/gilbert_elliott.hpp"
#include "fault/injector.hpp"
#include "fault/scenario.hpp"
#include "loss_identity.hpp"
#include "sim/sharded.hpp"
#include "tdd/common_config.hpp"

using namespace u5g;
using namespace u5g::literals;

// ===========================================================================
// Gilbert–Elliott channel process

TEST(GilbertElliottTest, IidIsTheDegenerateSingleStateCase) {
  const auto p = GilbertElliott::Params::iid(0.1);
  EXPECT_DOUBLE_EQ(p.stationary_bad(), 0.0);
  EXPECT_DOUBLE_EQ(p.average_loss(), 0.1);

  GilbertElliott ge(p);
  Rng rng(7);
  int losses = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) losses += ge.transmit_lost(rng) ? 1 : 0;
  EXPECT_FALSE(ge.in_bad_state());  // p_good_to_bad == 0: never leaves Good
  EXPECT_NEAR(static_cast<double>(losses) / kDraws, 0.1, 0.01);
}

TEST(GilbertElliottTest, MatchedAverageHitsTargetAndClusters) {
  const double avg = 0.05;
  const auto p = GilbertElliott::Params::matched_average(avg, 8.0, 0.75);
  EXPECT_NEAR(p.average_loss(), avg, 1e-12);
  EXPECT_NEAR(p.stationary_bad(), avg / 0.75, 1e-12);
  EXPECT_NEAR(p.p_bad_to_good, 1.0 / 8.0, 1e-12);

  // Empirical: long-run loss matches the target, and losses cluster — the
  // conditional loss probability after a loss is far above the average.
  GilbertElliott ge(p);
  Rng rng(11);
  constexpr int kDraws = 400'000;
  int losses = 0, pairs = 0, after_loss = 0;
  bool prev = false;
  for (int i = 0; i < kDraws; ++i) {
    const bool lost = ge.transmit_lost(rng);
    losses += lost ? 1 : 0;
    if (prev) {
      ++pairs;
      after_loss += lost ? 1 : 0;
    }
    prev = lost;
  }
  EXPECT_NEAR(static_cast<double>(losses) / kDraws, avg, 0.005);
  const double cond = static_cast<double>(after_loss) / pairs;
  EXPECT_GT(cond, 5.0 * avg);  // bursty: ~0.66 vs 0.05 average
}

TEST(GilbertElliottTest, InvalidParametersThrow) {
  EXPECT_THROW(GilbertElliott({1.5, 0.5, 0.1, 0.1}), std::invalid_argument);
  EXPECT_THROW(GilbertElliott({0.1, -0.1, 0.1, 0.1}), std::invalid_argument);
  EXPECT_THROW(GilbertElliott::Params::matched_average(0.8, 8.0, 0.75), std::invalid_argument);
  EXPECT_NO_THROW(GilbertElliott(GilbertElliott::Params::matched_average(0.05)));
}

// ===========================================================================
// Fault windows + injector

TEST(FaultWindowTest, OncePeriodicAlwaysSemantics) {
  const auto always = FaultWindow::always();
  EXPECT_TRUE(always.active_at(Nanos{0}));
  EXPECT_TRUE(always.active_at(Nanos{1'000'000'000}));

  const auto once = FaultWindow::once(1_ms, 2_ms);
  EXPECT_FALSE(once.active_at(Nanos{999'999}));
  EXPECT_TRUE(once.active_at(1_ms));                 // start inclusive
  EXPECT_TRUE(once.active_at(Nanos{2'999'999}));
  EXPECT_FALSE(once.active_at(3_ms));                // end exclusive
  EXPECT_FALSE(once.active_at(10_ms));               // one-shot: never again

  const auto periodic = FaultWindow::periodic(1_ms, 2_ms, 10_ms);
  EXPECT_TRUE(periodic.active_at(1_ms));
  EXPECT_FALSE(periodic.active_at(4_ms));
  EXPECT_TRUE(periodic.active_at(11_ms));            // next period
  EXPECT_TRUE(periodic.active_at(Nanos{12'999'999}));
  EXPECT_FALSE(periodic.active_at(13_ms));
}

TEST(FaultInjectorTest, DeterministicAcrossInstances) {
  const std::vector<FaultScenario> sc = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.1)),
      FaultScenario::upf_outage(FaultWindow::always(), 0.3, Nanos{10'000})};
  FaultInjector a(sc, 42), b(sc, 42), c(sc, 43);
  bool diverged_from_c = false;
  for (int i = 0; i < 2'000; ++i) {
    const Nanos now{i * 1'000};
    const bool la = a.channel_lost(now);
    EXPECT_EQ(la, b.channel_lost(now));
    if (la != c.channel_lost(now)) diverged_from_c = true;
    EXPECT_EQ(a.upf_dropped(now), b.upf_dropped(now));
    (void)c.upf_dropped(now);
  }
  EXPECT_TRUE(diverged_from_c);  // a different seed gives a different stream
  EXPECT_EQ(a.counters().burst_losses, b.counters().burst_losses);
  EXPECT_EQ(a.counters().upf_drops, b.counters().upf_drops);
  EXPECT_GT(a.counters().burst_losses, 0u);
}

TEST(FaultInjectorTest, WindowGatesEveryEffect) {
  const std::vector<FaultScenario> sc = {
      FaultScenario::burst_loss(GilbertElliott::Params::iid(1.0), FaultWindow::once(1_ms, 1_ms)),
      FaultScenario::radio_bus_stall(FaultWindow::once(5_ms, 1_ms), Nanos{70'000})};
  FaultInjector inj(sc, 1);
  EXPECT_TRUE(inj.models_channel_loss());
  EXPECT_FALSE(inj.channel_lost(Nanos{0}));       // before the window
  EXPECT_TRUE(inj.channel_lost(Nanos{1'500'000}));  // inside: certain loss
  EXPECT_FALSE(inj.channel_lost(Nanos{3'000'000}));
  EXPECT_EQ(inj.bus_stall(Nanos{0}), Nanos::zero());
  EXPECT_EQ(inj.bus_stall(Nanos{5'500'000}), Nanos{70'000});
  EXPECT_EQ(inj.counters().burst_losses, 1u);
  EXPECT_EQ(inj.counters().bus_stalls, 1u);
}

// ===========================================================================
// End-to-end: determinism contract

namespace {

std::vector<double> ul_latencies(const StackConfig& cfg, int packets) {
  StackConfig c = cfg;
  E2eSystem sys(std::move(c));
  for (int i = 0; i < packets; ++i) sys.send_uplink_at(2_ms * i + Nanos{100'000});
  sys.run_until(2_ms * (packets + 50));
  return sys.latency_samples_us(Direction::Uplink).samples();
}

}  // namespace

TEST(FaultE2eTest, InactiveScenariosLeaveRunsBitIdentical) {
  // Scenarios whose windows never activate within the run must not perturb
  // a single draw of the main simulation stream — the same contract that
  // keeps existing goldens byte-identical with the subsystem compiled in.
  StackConfig base = StackConfig::testbed_grant_free(3);
  base.channel_loss = 0.1;

  StackConfig with_idle_faults = base;
  with_idle_faults.faults = {
      FaultScenario::os_jitter_storm(FaultWindow::once(10'000_ms, 1_ms)),
      FaultScenario::radio_bus_stall(FaultWindow::once(10'000_ms, 1_ms), Nanos{50'000}),
      FaultScenario::upf_outage(FaultWindow::once(10'000_ms, 1_ms), 0.5, 1_ms)};

  EXPECT_EQ(ul_latencies(base, 40), ul_latencies(with_idle_faults, 40));
}

TEST(FaultE2eTest, IidScenarioMatchesChannelLossDistributionally) {
  // The degenerate GE scenario replaces `channel_loss` with its own stream:
  // not bitwise the same run, but the same loss process — delivered
  // fractions must agree closely at identical seeds and load.
  StackConfig iid_knob = StackConfig::testbed_grant_free(5);
  iid_knob.channel_loss = 0.2;
  StackConfig iid_scenario = StackConfig::testbed_grant_free(5);
  iid_scenario.faults = {FaultScenario::burst_loss(GilbertElliott::Params::iid(0.2))};

  const auto a = ul_latencies(iid_knob, 400);
  const auto b = ul_latencies(iid_scenario, 400);
  EXPECT_NEAR(static_cast<double>(a.size()) / 400.0, static_cast<double>(b.size()) / 400.0,
              0.05);
}

// ===========================================================================
// End-to-end: each fault kind has its advertised effect

TEST(FaultE2eTest, StormDelaysEveryTraversalMonotonically) {
  StackConfig base = StackConfig::testbed_grant_free(9);
  StackConfig stormy = base;
  stormy.faults = {FaultScenario::os_jitter_storm(FaultWindow::always())};

  constexpr int kPackets = 30;
  StackConfig b2 = base;
  E2eSystem sys_a(std::move(b2));
  E2eSystem sys_b(std::move(stormy));
  for (int i = 0; i < kPackets; ++i) {
    sys_a.send_uplink_at(2_ms * i);
    sys_b.send_uplink_at(2_ms * i);
  }
  sys_a.run_until(2_ms * (kPackets + 50));
  sys_b.run_until(2_ms * (kPackets + 50));

  ASSERT_EQ(sys_a.records().size(), sys_b.records().size());
  double sum_a = 0.0, sum_b = 0.0;
  for (std::size_t i = 0; i < sys_a.records().size(); ++i) {
    ASSERT_TRUE(sys_a.records()[i].ok);
    ASSERT_TRUE(sys_b.records()[i].ok);
    // Storm jitter only ever postpones: per-packet latency is >= baseline.
    EXPECT_GE(sys_b.records()[i].latency(), sys_a.records()[i].latency());
    sum_a += sys_a.records()[i].latency().us();
    sum_b += sys_b.records()[i].latency().us();
  }
  EXPECT_GT(sum_b, sum_a);
  EXPECT_GT(sys_b.fault_counters().storm_spikes, 0u);
  EXPECT_EQ(sys_a.fault_counters().storm_spikes, 0u);
}

TEST(FaultE2eTest, BusStallAddsAtLeastTheStallPerPacket) {
  StackConfig base = StackConfig::testbed_grant_free(13);
  StackConfig stalled = base;
  const Nanos stall{100'000};
  stalled.faults = {FaultScenario::radio_bus_stall(FaultWindow::always(), stall)};

  constexpr int kPackets = 20;
  StackConfig b2 = base;
  E2eSystem sys_a(std::move(b2));
  E2eSystem sys_b(std::move(stalled));
  for (int i = 0; i < kPackets; ++i) {
    sys_a.send_uplink_at(2_ms * i);
    sys_b.send_uplink_at(2_ms * i);
  }
  sys_a.run_until(2_ms * (kPackets + 50));
  sys_b.run_until(2_ms * (kPackets + 50));

  for (std::size_t i = 0; i < sys_a.records().size(); ++i) {
    ASSERT_TRUE(sys_b.records()[i].ok);
    // The UL path crosses the radio bus at least once (gNB RX delivery).
    EXPECT_GE(sys_b.records()[i].latency(), sys_a.records()[i].latency() + stall);
  }
  EXPECT_GT(sys_b.fault_counters().bus_stalls, 0u);
}

TEST(FaultE2eTest, UpfOutageDropsAreAccounted) {
  for (const Direction dir : {Direction::Uplink, Direction::Downlink}) {
    StackConfig cfg = StackConfig::testbed_grant_based(17);
    cfg.faults = {FaultScenario::upf_outage(FaultWindow::always(), 1.0, Nanos::zero())};
    E2eSystem sys(std::move(cfg));
    constexpr int kPackets = 10;
    for (int i = 0; i < kPackets; ++i) {
      if (dir == Direction::Uplink) {
        sys.send_uplink_at(2_ms * i);
      } else {
        sys.send_downlink_at(2_ms * i);
      }
    }
    sys.run_until(2_ms * (kPackets + 50));
    EXPECT_EQ(sys.packets_delivered(), 0u);
    EXPECT_EQ(sys.fault_counters().upf_drops, static_cast<std::uint64_t>(kPackets));
    expect_loss_identity(sys, kPackets);
  }
}

// ===========================================================================
// Regressions: HARQ loss recovery

namespace {

/// A duplex with one direction blacked out over slots [first, last]: the
/// starved-scheduler scenarios in which the planner finds no opportunity
/// inside its search horizon.
class BlackoutDuplex final : public DuplexConfig {
 public:
  BlackoutDuplex(TddCommonConfig inner, Direction dir, SlotIndex first,
                 SlotIndex last = std::numeric_limits<SlotIndex>::max())
      : DuplexConfig(inner.numerology()), inner_(std::move(inner)), dir_(dir), first_(first),
        last_(last) {}
  [[nodiscard]] std::uint16_t dl_mask(SlotIndex s) const override {
    return dark(Direction::Downlink, s) ? std::uint16_t{0} : inner_.dl_mask(s);
  }
  [[nodiscard]] std::uint16_t ul_mask(SlotIndex s) const override {
    return dark(Direction::Uplink, s) ? std::uint16_t{0} : inner_.ul_mask(s);
  }
  [[nodiscard]] int period_slots() const override { return inner_.period_slots(); }
  [[nodiscard]] std::string name() const override { return "blackout"; }

 private:
  [[nodiscard]] bool dark(Direction d, SlotIndex s) const {
    return d == dir_ && s >= first_ && s <= last_;
  }
  TddCommonConfig inner_;
  Direction dir_;
  SlotIndex first_;
  SlotIndex last_;
};

/// Step `sys` one event at a time up to its first stranded drop and return
/// the simulated time of that drop (Nanos::max() if the queue drains first).
Nanos step_to_first_stranded_drop(E2eSystem& sys) {
  while (sys.stranded_drops() == 0) {
    if (!sys.simulator().step()) return Nanos::max();
  }
  return sys.simulator().now();
}

}  // namespace

TEST(FaultRegressionTest, StrandedUlRetransmissionIsCountedNotLeaked) {
  // One UL packet, grant-based. Every in-era transmission is killed by a
  // certain-loss window; the UL era then ends, so no retransmission
  // opportunity ever appears. Before the fix the TB sat in the retx queue
  // forever — uncounted, silently inflating reliability. Now it must be
  // re-armed up to the cap and then dropped as `stranded`.
  StackConfig cfg = StackConfig::testbed_grant_based(21);
  // The UL era ends after slot 11.
  cfg.duplex =
      std::make_shared<BlackoutDuplex>(TddCommonConfig::dddu(kMu1), Direction::Uplink, 12);
  cfg.harq_max_tx = 8;  // budget never exhausts inside the era
  cfg.faults = {FaultScenario::burst_loss(GilbertElliott::Params::iid(1.0),
                                          FaultWindow::once(Nanos::zero(), 6_ms))};
  E2eSystem sys(std::move(cfg));
  sys.send_uplink_at(Nanos{100'000});
  sys.run_until(100_ms);  // past the re-arm cap (64 slots = 32 ms)

  EXPECT_EQ(sys.packets_delivered(), 0u);
  EXPECT_EQ(sys.stranded_drops(), 1u);
  EXPECT_EQ(sys.harq_dropped_tbs(), 0u);
  EXPECT_FALSE(sys.records()[0].ok);
  expect_loss_identity(sys, 1);
}

TEST(FaultRegressionTest, UlGapLongerThanPlannerHorizonDoesNotLatchSr) {
  // A burst arrives just before a 100 ms UL blackout (slots 40-239 at µ1),
  // longer than the planner's 40 ms search horizon. The follow-up grant
  // after the first TB finds no opportunity; the SR latch must then be
  // released, or every later packet on the UE (here: the one at 150 ms,
  // after the gap) starves without landing in any loss bucket.
  StackConfig cfg = StackConfig::testbed_grant_based(5);
  cfg.duplex =
      std::make_shared<BlackoutDuplex>(TddCommonConfig::dddu(kMu1), Direction::Uplink, 40, 239);
  E2eSystem sys(std::move(cfg));
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) sys.send_uplink_at(Nanos{17'000'000});
  sys.send_uplink_at(150_ms);
  sys.run_until(400_ms);

  EXPECT_TRUE(sys.records()[kBurst].ok) << "the post-gap packet starved behind a latched SR";
  EXPECT_EQ(sys.mac_backlog().sr_pending, 0u);
  expect_loss_identity(sys, kBurst + 1);
}

TEST(FaultRegressionTest, StrandedDlSduIsDiscardedNotDeliveredLater) {
  // A DL packet arrives just before a 100 ms DL blackout (slots 20-219 at
  // µ1): past the retry cap it is counted as stranded. Its SDU must leave
  // the RLC queue then — before the fix the next packet's service call
  // delivered it after all, so it was counted twice (delivered + stranded).
  StackConfig cfg = StackConfig::testbed_grant_based(3);
  cfg.duplex =
      std::make_shared<BlackoutDuplex>(TddCommonConfig::dddu(kMu1), Direction::Downlink, 20, 219);
  E2eSystem sys(std::move(cfg));
  sys.send_downlink_at(12_ms);
  sys.send_downlink_at(130_ms);
  sys.run_until(400_ms);

  EXPECT_FALSE(sys.records()[0].ok);
  EXPECT_TRUE(sys.records()[1].ok);
  EXPECT_EQ(sys.stranded_drops(), 1u);
  expect_loss_identity(sys, 2);
}

TEST(FaultRegressionTest, StrandedDlRetransmissionIsCountedOnce) {
  // The DL *re-plan* path: a DL packet's TB is lost in every transmission a
  // certain-loss burst covers, and then a 100 ms DL blackout (slots 20-219
  // at µ1) starves the re-plan past the retry cap. The TB is dropped once
  // as stranded. The drop time and the post-gap packet's delivery time pin
  // the re-arm timing (both recorded once, never regenerated).
  StackConfig cfg = StackConfig::testbed_grant_based(29);
  cfg.duplex =
      std::make_shared<BlackoutDuplex>(TddCommonConfig::dddu(kMu1), Direction::Downlink, 20, 219);
  cfg.harq_max_tx = 8;  // budget never exhausts before the blackout
  cfg.faults = {FaultScenario::burst_loss(GilbertElliott::Params::iid(1.0),
                                          FaultWindow::once(Nanos::zero(), 10_ms))};
  E2eSystem sys(std::move(cfg));
  sys.send_downlink_at(8_ms);
  sys.send_downlink_at(130_ms);
  EXPECT_EQ(step_to_first_stranded_drop(sys), Nanos{42'000'000});
  sys.run_until(400_ms);

  EXPECT_FALSE(sys.records()[0].ok);
  ASSERT_TRUE(sys.records()[1].ok);
  EXPECT_EQ(sys.stranded_drops(), 1u);
  EXPECT_EQ(sys.harq_dropped_tbs(), 0u);
  EXPECT_EQ(sys.records()[1].delivered, Nanos{136'926'340});
  expect_loss_identity(sys, 2);
}

TEST(FaultRegressionTest, StrandedGrantFreeUlRetransmissionIsCounted) {
  // The grant-free twin of StrandedUlRetransmissionIsCountedNotLeaked: the
  // retransmission searches configured-grant occasions, and a 114 ms UL
  // blackout (slots 12-239 at µ1) leaves none inside the horizon until the
  // retry cap drops the TB as stranded. The drop time, the traced re-arm
  // waits and the post-gap packet's delivery time pin the re-arm timing
  // (all recorded once, never regenerated).
  StackConfig cfg = StackConfig::testbed_grant_free(27);
  cfg.duplex =
      std::make_shared<BlackoutDuplex>(TddCommonConfig::dddu(kMu1), Direction::Uplink, 12, 239);
  cfg.harq_max_tx = 8;  // budget never exhausts inside the era
  cfg.faults = {FaultScenario::burst_loss(GilbertElliott::Params::iid(1.0),
                                          FaultWindow::once(Nanos::zero(), 6_ms))};
  cfg.trace.enabled = true;
  cfg.trace.metrics = false;
  E2eSystem sys(std::move(cfg));
  sys.send_uplink_at(Nanos{100'000});
  sys.send_uplink_at(150_ms);
  EXPECT_EQ(step_to_first_stranded_drop(sys), Nanos{38'142'856});
  sys.run_until(400_ms);

  EXPECT_FALSE(sys.records()[0].ok);
  ASSERT_TRUE(sys.records()[1].ok);
  EXPECT_EQ(sys.stranded_drops(), 1u);
  EXPECT_EQ(sys.harq_dropped_tbs(), 0u);
  EXPECT_EQ(sys.records()[1].delivered, Nanos{156'883'824});
  expect_loss_identity(sys, 2);

  // One traced wait per re-arm, slot after slot, up to the drop.
  std::vector<TraceSpan> waits;
  for (const TraceSpan& sp : sys.tracer().spans()) {
    if (sp.name == "stranded retransmission wait") waits.push_back(sp);
  }
  ASSERT_EQ(waits.size(), 64u);
  EXPECT_EQ(waits.front().seq, 0);
  EXPECT_EQ(waits.front().start, Nanos{6'142'856});
  EXPECT_EQ(waits.back().end, Nanos{38'142'856});
}

TEST(FaultRegressionTest, ReLostTbKeepsOldestFirstRecoveryOrder) {
  // Two UL packets whose TBs are both lost repeatedly inside a certain-loss
  // burst window. A re-lost TB must re-enter the retransmission queue at the
  // *front* (ordered by first transmission): when the burst ends, packet 0
  // recovers before packet 1. The old push_back let the newer TB overtake.
  StackConfig cfg = StackConfig::testbed_grant_free(23);
  cfg.payload_bytes = 128;  // one SDU per 256-byte TB: packets keep their own TB
  cfg.harq_max_tx = 100;
  cfg.faults = {FaultScenario::burst_loss(GilbertElliott::Params::iid(1.0),
                                          FaultWindow::once(Nanos::zero(), 6_ms))};
  E2eSystem sys(std::move(cfg));
  sys.send_uplink_at(Nanos{50'000});
  sys.send_uplink_at(Nanos{600'000});
  sys.run_until(60_ms);

  ASSERT_TRUE(sys.records()[0].ok);
  ASSERT_TRUE(sys.records()[1].ok);
  EXPECT_GT(sys.records()[0].harq_transmissions, 1);
  EXPECT_LT(sys.records()[0].delivered, sys.records()[1].delivered);
}

// ===========================================================================
// Loss accounting invariant

namespace {

void expect_accounting_invariant(StackConfig cfg, Direction dir, int packets) {
  // One SDU per 256-byte TB, so TB drops == packet drops. 236 payload bytes
  // + 7 (SDAP + PDCP header + integrity tag) fill the TB past the point
  // where the MAC could pull a leading segment of the *next* SDU — a dropped
  // TB then never takes part of another packet with it.
  cfg.payload_bytes = 236;
  E2eSystem sys(std::move(cfg));
  for (int i = 0; i < packets; ++i) {
    if (dir == Direction::Uplink) {
      sys.send_uplink_at(2_ms * i + Nanos{100'000});
    } else {
      sys.send_downlink_at(2_ms * i + Nanos{100'000});
    }
  }
  // Generous drain margin: under heavy HARQ churn the scheduler's monotonic
  // window booking pushes recovery grants far past the last send time.
  sys.run_until(2_ms * packets + 2000_ms);

  expect_loss_identity(sys, static_cast<std::uint64_t>(packets));
  EXPECT_EQ(sys.stranded_drops(), 0u);  // nothing starves in these configs
  EXPECT_GT(sys.harq_dropped_tbs(), 0u);  // loss 0.35, budget 2: drops happen
}

}  // namespace

TEST(FaultAccountingTest, UplinkGrantBasedUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_based(31);
  cfg.channel_loss = 0.35;
  cfg.harq_max_tx = 2;
  expect_accounting_invariant(std::move(cfg), Direction::Uplink, 80);
}

TEST(FaultAccountingTest, UplinkGrantFreeUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_free(32);
  cfg.channel_loss = 0.35;
  cfg.harq_max_tx = 2;
  expect_accounting_invariant(std::move(cfg), Direction::Uplink, 80);
}

TEST(FaultAccountingTest, DownlinkUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_based(33);
  cfg.channel_loss = 0.35;
  cfg.harq_max_tx = 2;
  expect_accounting_invariant(std::move(cfg), Direction::Downlink, 80);
}

TEST(FaultAccountingTest, BurstLossScenarioUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_free(34);
  cfg.harq_max_tx = 2;
  cfg.faults = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.2, 6.0, 0.8))};
  expect_accounting_invariant(std::move(cfg), Direction::Uplink, 80);
}

// ===========================================================================
// Metrics mirror + sharded determinism with faults enabled

namespace {

/// Every counter E2eSystem publishes, each checked against the accessor or
/// per-packet tally it is read from. The two dynamic-TDD counters exist
/// only when the policy is enabled. Packets count as sent once their
/// injection time has passed. Returns the counter values by name.
std::map<std::string, std::uint64_t> expect_counters_match_tallies(const E2eSystem& sys,
                                                                   bool dynamic_tdd) {
  std::map<std::string, std::uint64_t> v;
  for (const auto& [name, c] : sys.metrics().counters()) v[name] = c.value();
  std::uint64_t ul = 0, dl = 0, retx = 0;
  for (const PacketRecord& r : sys.records()) {
    if (r.created > sys.simulator().now()) continue;
    (r.dir == Direction::Uplink ? ul : dl) += 1;
    if (r.ok) retx += static_cast<std::uint64_t>(r.harq_transmissions - 1);
  }
  const FaultInjector::Counters fc = sys.fault_counters();
  const std::map<std::string, std::uint64_t> want = {
      {"packets.ul_sent", ul},
      {"packets.dl_sent", dl},
      {"packets.delivered", sys.packets_delivered()},
      {"packets.harq_retransmissions", retx},
      {"harq.dropped_tbs", sys.harq_dropped_tbs()},
      {"harq.stranded_drops", sys.stranded_drops()},
      {"radio.deadline_misses", sys.radio_deadline_misses()},
      {"mac.missed_grants", sys.missed_grants()},
      {"fault.burst_losses", fc.burst_losses},
      {"fault.os_jitter_storms", fc.storm_spikes},
      {"fault.radio_bus_stalls", fc.bus_stalls},
      {"fault.upf_drops", fc.upf_drops},
      {"fault.upf_delays", fc.upf_delays}};
  for (const auto& [name, value] : want) {
    EXPECT_EQ(v.count(name), 1u) << name;
    EXPECT_EQ(v[name], value) << name;
  }
  EXPECT_EQ(v["packets.ul_sent"] + v["packets.dl_sent"], sys.packets_started());
  if (dynamic_tdd) {
    EXPECT_EQ(v.at("harq.punctured_retx"), sys.punctured_retx());
    EXPECT_EQ(v.at("xlink.ul_losses"), sys.crosslink_ul_losses());
  } else {
    EXPECT_EQ(v.count("harq.punctured_retx"), 0u);
    EXPECT_EQ(v.count("xlink.ul_losses"), 0u);
  }
  return v;
}

}  // namespace

TEST(FaultMetricsTest, FaultCountersMirrorIntoRegistry) {
  StackConfig cfg = StackConfig::testbed_grant_free(41);
  cfg.trace.enabled = true;
  cfg.trace.metrics = true;
  cfg.faults = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.3, 4.0, 0.9)),
      FaultScenario::os_jitter_storm(FaultWindow::always()),
      FaultScenario::radio_bus_stall(FaultWindow::always(), Nanos{30'000})};
  E2eSystem sys(std::move(cfg));
  for (int i = 0; i < 60; ++i) sys.send_uplink_at(2_ms * i);
  sys.run_until(250_ms);

  const FaultInjector::Counters fc = sys.fault_counters();
  EXPECT_GT(fc.burst_losses, 0u);
  EXPECT_GT(fc.storm_spikes, 0u);
  EXPECT_GT(fc.bus_stalls, 0u);
  expect_counters_match_tallies(sys, /*dynamic_tdd=*/false);

  // Grant-based UL under OS-jitter storms (late DCI decodes: missed grants),
  // burst loss (HARQ retransmissions and drops), a tight radio lead (DL
  // deadline misses), UPF outages, and dynamic TDD with preemption and
  // cross-link loss — every published counter moves.
  cfg = StackConfig::testbed_grant_based(43);
  cfg.trace.enabled = true;
  cfg.num_ues = 3;
  cfg.payload_bytes = 236;
  cfg.harq_max_tx = 2;
  cfg.sched.radio_lead = Nanos{360'000};
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  cfg.dynamic_tdd.hold_slots = 16;
  cfg.dynamic_tdd.xlink_ul_bler = 0.4;
  cfg.faults = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.15, 6.0, 0.8)),
      FaultScenario::os_jitter_storm(FaultWindow::periodic(2_ms, 3_ms, 10_ms)),
      FaultScenario::radio_bus_stall(FaultWindow::periodic(5_ms, 2_ms, 10_ms), Nanos{400'000}),
      FaultScenario::upf_outage(FaultWindow::periodic(8_ms, 2_ms, 20_ms), 0.3, Nanos{50'000})};
  E2eSystem dyn(std::move(cfg));
  dyn.set_crosslink_dl_activity(0.6);

  // The names are registered, at zero, before the first run_until().
  const std::string before = dyn.metrics().to_json();
  for (const char* name :
       {"packets.ul_sent", "packets.dl_sent", "packets.delivered", "packets.harq_retransmissions",
        "harq.dropped_tbs", "harq.stranded_drops", "radio.deadline_misses", "mac.missed_grants",
        "fault.burst_losses", "fault.os_jitter_storms", "fault.radio_bus_stalls",
        "fault.upf_drops", "fault.upf_delays", "harq.punctured_retx", "xlink.ul_losses"}) {
    EXPECT_NE(before.find(std::string("\"") + name + "\": 0"), std::string::npos) << name;
  }

  for (int i = 0; i < 60; ++i) {
    const Nanos base = 4_ms * i;
    for (int u = 0; u < 3; ++u) {
      dyn.send_uplink_at(base + 1_ms + Nanos{150'000} * u, u);
      // UEs >= 1 carry an eMBB DL backlog: preemption victims for UE 0.
      for (int b = 0; b < (u == 0 ? 1 : 3); ++b) {
        dyn.send_downlink_at(base + (u == 0 ? Nanos{600'000} : Nanos{b}), u);
      }
    }
  }
  // Counters are published at every run_until(): check mid-run and at the end.
  dyn.run_until(120_ms);
  expect_counters_match_tallies(dyn, /*dynamic_tdd=*/true);
  dyn.run_until(800_ms);
  const auto v = expect_counters_match_tallies(dyn, /*dynamic_tdd=*/true);
  for (const char* moved :
       {"packets.harq_retransmissions", "harq.dropped_tbs", "radio.deadline_misses",
        "mac.missed_grants", "fault.burst_losses", "fault.os_jitter_storms",
        "fault.radio_bus_stalls", "fault.upf_drops", "fault.upf_delays", "harq.punctured_retx",
        "xlink.ul_losses"}) {
    EXPECT_GT(v.at(moved), 0u) << moved;
  }
}

TEST(FaultShardedTest, MergedResultsIdenticalAcrossWorkerCountsWithFaults) {
  constexpr Nanos kPeriod{2'000'000};
  constexpr int kPackets = 4;
  std::string baseline_metrics;
  std::vector<double> baseline_samples;

  for (const int threads : {1, 2, 4, 8}) {
    StackConfig cfg = StackConfig::testbed_grant_free(77);
    cfg.num_cells = 4;
    cfg.num_ues = 1;
    cfg.intercell_load_coupling = 0.05;
    cfg.trace.enabled = true;
    cfg.trace.metrics = true;
    cfg.faults = {
        FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.1, 6.0, 0.8)),
        FaultScenario::os_jitter_storm(FaultWindow::periodic(2_ms, 1_ms, 8_ms)),
        FaultScenario::radio_bus_stall(FaultWindow::periodic(3_ms, 1_ms, 8_ms), Nanos{40'000}),
        FaultScenario::upf_outage(FaultWindow::periodic(5_ms, 1_ms, 16_ms), 0.3, Nanos{50'000})};

    ShardedEngine eng(cfg, ShardedOptions{threads});
    for (int c = 0; c < eng.num_cells(); ++c) {
      for (int p = 0; p < kPackets; ++p) {
        eng.send_uplink_at(kPeriod * (2 * p) + Nanos{100'000} * (c + 1), c, 0);
        eng.send_downlink_at(kPeriod * (2 * p + 1) + Nanos{70'000} * (c + 1), c, 0);
      }
    }
    eng.run_until(kPeriod * (2 * kPackets + 10));

    ASSERT_GT(eng.packets_delivered(), 0u);
    const std::string metrics = eng.merged_metrics().to_json();
    SampleSet merged = eng.latency_samples_us(Direction::Uplink);
    merged.merge(eng.latency_samples_us(Direction::Downlink));
    if (threads == 1) {
      baseline_metrics = metrics;
      baseline_samples = merged.samples();
      continue;
    }
    EXPECT_EQ(metrics, baseline_metrics) << "thread count " << threads;
    EXPECT_EQ(merged.samples(), baseline_samples) << "thread count " << threads;
  }
}

// ===========================================================================
// Satellite: effective_bler contract

TEST(HarqModelTest, EffectiveBlerGeometricDecay) {
  EXPECT_DOUBLE_EQ(effective_bler(0.1, 1), 0.1);
  EXPECT_DOUBLE_EQ(effective_bler(0.1, 2), 0.01);
  EXPECT_DOUBLE_EQ(effective_bler(0.1, 3, 0.5), 0.025);
  EXPECT_DOUBLE_EQ(effective_bler(0.0, 4), 0.0);
  // Factor 1.0: no combining gain — BLER stays flat across attempts.
  EXPECT_DOUBLE_EQ(effective_bler(0.3, 5, 1.0), 0.3);
}
