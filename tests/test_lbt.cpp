// Tests for NR-U Listen-Before-Talk channel access (phy/lbt.hpp) and its
// integration as the fourth traced latency source in the e2e system:
// CAT4 backoff determinism, CWS feedback dynamics, energy-detect gating,
// disabled-gate bitwise identity, span tiling with the ChannelAccess
// category, and sharded-engine determinism across worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/e2e_system.hpp"
#include "loss_identity.hpp"
#include "phy/lbt.hpp"
#include "sim/sharded.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

LbtConfig coex(Nanos busy, Nanos idle) {
  LbtConfig l;
  l.enabled = true;
  l.wifi_busy_mean = busy;
  l.wifi_idle_mean = idle;
  return l;
}

// ---------------------------------------------------------------------------
// LbtGate unit behaviour

TEST(LbtGateTest, Cat4AccessIsDeterministic) {
  const LbtConfig cfg = coex(Nanos{60'000}, Nanos{200'000});
  LbtGate a(cfg, 42);
  LbtGate b(cfg, 42);
  for (int i = 0; i < 300; ++i) {
    const Nanos wanted{static_cast<std::int64_t>(i) * 200'000};
    const LbtGate::Access ra = a.acquire(wanted, Nanos{30'000}, wanted);
    const LbtGate::Access rb = b.acquire(wanted, Nanos{30'000}, wanted);
    ASSERT_EQ(ra.start, rb.start) << "attempt " << i;
    ASSERT_EQ(ra.deferral, rb.deferral) << "attempt " << i;
    ASSERT_EQ(ra.collided, rb.collided) << "attempt " << i;
    EXPECT_GE(ra.deferral, cfg.defer);  // at least the initial defer, always
  }
  EXPECT_EQ(a.stats().deferral_total, b.stats().deferral_total);
  EXPECT_EQ(a.stats().hidden_collisions, b.stats().hidden_collisions);
  // A different seed draws a different backoff/interference history.
  LbtGate c(cfg, 43);
  Nanos total{};
  for (int i = 0; i < 300; ++i) {
    const Nanos wanted{static_cast<std::int64_t>(i) * 200'000};
    total += c.acquire(wanted, Nanos{30'000}, wanted).deferral;
  }
  EXPECT_NE(total, a.stats().deferral_total);
}

TEST(LbtGateTest, CwDoublesOnNackRatioAndResetsOnSuccess) {
  LbtConfig cfg;
  cfg.enabled = true;  // clear channel: CW dynamics only
  LbtGate g(cfg, 7);
  EXPECT_EQ(g.cw(), cfg.cw_min);

  // A full-NACK window doubles the CW at the next access evaluation.
  for (int i = 0; i < cfg.min_feedback; ++i) g.on_harq_feedback(true);
  (void)g.acquire(Nanos{1'000'000}, Nanos{10'000}, Nanos{1'000'000});
  EXPECT_EQ(g.cw(), std::min(2 * cfg.cw_min + 1, cfg.cw_max));
  EXPECT_EQ(g.stats().cw_doublings, 1u);

  // Another bad window: doubling saturates at cw_max.
  for (int i = 0; i < cfg.min_feedback; ++i) g.on_harq_feedback(true);
  (void)g.acquire(Nanos{2'000'000}, Nanos{10'000}, Nanos{2'000'000});
  EXPECT_EQ(g.cw(), cfg.cw_max);

  // Below-threshold NACK ratio (3/4 < 0.8) resets to cw_min.
  for (int i = 0; i < 3; ++i) g.on_harq_feedback(true);
  g.on_harq_feedback(false);
  (void)g.acquire(Nanos{3'000'000}, Nanos{10'000}, Nanos{3'000'000});
  EXPECT_EQ(g.cw(), cfg.cw_min);
  EXPECT_EQ(g.stats().cw_resets, 1u);

  // Too little feedback: no evaluation, the window keeps accumulating.
  for (int i = 0; i < cfg.min_feedback - 1; ++i) g.on_harq_feedback(true);
  (void)g.acquire(Nanos{4'000'000}, Nanos{10'000}, Nanos{4'000'000});
  EXPECT_EQ(g.cw(), cfg.cw_min);
}

TEST(LbtGateTest, EnergyDetectGatesWhatBusyMeans) {
  // All interference below the ED threshold: the CCA never senses busy, so
  // every deferral is exactly the defer + the drawn backoff countdown ...
  LbtConfig hidden = coex(Nanos{80'000}, Nanos{120'000});
  hidden.ed_threshold_dbm = -40.0;  // above wifi_energy_max_dbm = -45
  LbtGate blind(hidden, 11);
  const Nanos bound = hidden.defer + hidden.ed_slot * hidden.cw_max;
  std::uint64_t overlapped = 0;
  for (int i = 0; i < 400; ++i) {
    const Nanos wanted{static_cast<std::int64_t>(i) * 300'000};
    const LbtGate::Access a = blind.acquire(wanted, Nanos{30'000}, wanted);
    EXPECT_LE(a.deferral, bound);
    overlapped += a.collided ? 1u : 0u;
  }
  // ... and the interference it cannot see collides with its bursts instead.
  EXPECT_GT(overlapped, 0u);
  EXPECT_EQ(blind.stats().hidden_collisions, overlapped);

  // Same load, threshold below the energy floor: everything is sensed, the
  // gate waits out the bursts and defers far more in total.
  LbtConfig sensed = coex(Nanos{80'000}, Nanos{120'000});
  sensed.ed_threshold_dbm = -80.0;  // below wifi_energy_min_dbm = -75
  LbtGate careful(sensed, 11);
  for (int i = 0; i < 400; ++i) {
    const Nanos wanted{static_cast<std::int64_t>(i) * 300'000};
    (void)careful.acquire(wanted, Nanos{30'000}, wanted);
  }
  EXPECT_GT(careful.stats().deferral_total, blind.stats().deferral_total);
}

TEST(LbtGateTest, WifiBusyAccountingSurvivesPruning) {
  const LbtConfig cfg = coex(Nanos{50'000}, Nanos{150'000});
  // One gate queried once at the horizon; another driven through acquires
  // (which prune consumed intervals) first. The cumulative busy tally must
  // not depend on pruning.
  LbtGate oneshot(cfg, 99);
  LbtGate driven(cfg, 99);
  for (int i = 0; i < 200; ++i) {
    const Nanos wanted{static_cast<std::int64_t>(i) * 100'000};
    (void)driven.acquire(wanted, Nanos{20'000}, wanted);
  }
  const Nanos horizon{40'000'000};
  EXPECT_EQ(oneshot.wifi_busy_until(horizon), driven.wifi_busy_until(horizon));
  EXPECT_GT(driven.wifi_busy_until(horizon), Nanos{});
}

// ---------------------------------------------------------------------------
// E2e integration

std::vector<PacketRecord> run_testbed(const LbtConfig& lbt) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/7);
  cfg.lbt = lbt;
  E2eSystem sys(cfg);
  for (int i = 0; i < 16; ++i) sys.send_uplink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos{500'000'000});
  return sys.records();
}

TEST(LbtE2eTest, DisabledGateLeavesRunsBitIdentical) {
  // Every LBT knob may differ as long as `enabled` stays false: no gate is
  // built, no RNG stream exists, and the run is bitwise identical to a
  // default config — the pre-LBT goldens stay valid.
  LbtConfig knobs;
  knobs.cw_min = 5;
  knobs.cw_max = 15;
  knobs.wifi_busy_mean = Nanos{90'000};
  knobs.wifi_idle_mean = Nanos{110'000};
  knobs.tx_gap = Nanos{25'000};
  ASSERT_FALSE(knobs.enabled);
  const std::vector<PacketRecord> base = run_testbed(LbtConfig{});
  const std::vector<PacketRecord> with_knobs = run_testbed(knobs);
  ASSERT_EQ(base.size(), with_knobs.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].created, with_knobs[i].created);
    EXPECT_EQ(base[i].delivered, with_knobs[i].delivered);
    EXPECT_EQ(base[i].ok, with_knobs[i].ok);
    EXPECT_EQ(base[i].harq_transmissions, with_knobs[i].harq_transmissions);
  }

  StackConfig cfg = StackConfig::testbed_grant_free(7);
  E2eSystem sys(cfg);
  const LbtGate::Stats s = sys.lbt_stats();
  EXPECT_EQ(s.attempts, 0u);
  EXPECT_EQ(s.deferral_total, Nanos{});
  EXPECT_EQ(sys.wifi_busy_until(Nanos{1'000'000'000}), Nanos{});
}

TEST(LbtE2eTest, EnabledGateDefersEveryUplinkBurst) {
  StackConfig cfg = StackConfig::urllc_design(/*seed=*/5);
  cfg.lbt = coex(Nanos{}, Nanos{1'000'000});  // NR-U alone: clear channel
  E2eSystem sys(cfg);
  for (int i = 0; i < 24; ++i) sys.send_uplink_at(Nanos{1'000'000 + i * 500'000LL});
  sys.run_until(Nanos{200'000'000});
  const LbtGate::Stats s = sys.lbt_stats();
  EXPECT_GE(s.attempts, 24u);  // >= : HARQ retransmissions clear LBT too
  EXPECT_EQ(s.deferred, s.attempts);  // every access pays at least the defer
  EXPECT_GE(s.deferral_total, cfg.lbt.defer * 24);
  EXPECT_EQ(s.hidden_collisions, 0u);
  for (const PacketRecord& r : sys.records()) EXPECT_TRUE(r.ok);
}

TEST(LbtE2eTest, ChannelAccessSpansTileExactly) {
  // With LBT and interference on, every delivered packet's spans must still
  // tile [created, delivered] exactly — now across FOUR categories, with
  // the deferral attributed to ChannelAccess, never to an unattributed gap.
  StackConfig cfg = StackConfig::urllc_design(/*seed=*/5);
  cfg.lbt = coex(Nanos{60'000}, Nanos{240'000});
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  // 8 ms spacing: one packet in flight at a time, the tracer's contract
  // (same pacing as the test_trace tiling tests).
  for (int i = 0; i < 32; ++i) sys.send_uplink_at(Nanos{1'000'000 + i * 8'000'000LL});
  sys.run_until(Nanos{500'000'000});

  Nanos channel_access_total{};
  std::size_t delivered = 0;
  for (const PacketRecord& r : sys.records()) {
    if (!r.ok) continue;  // a terminal drop closes its trace early
    ++delivered;
    Nanos categories{};
    for (LatencyCategory c : {LatencyCategory::Protocol, LatencyCategory::Processing,
                              LatencyCategory::Radio, LatencyCategory::ChannelAccess}) {
      categories += sys.tracer().category_total(r.seq, c);
    }
    EXPECT_EQ(r.latency(), categories) << "packet " << r.seq;
    EXPECT_EQ(r.latency(), sys.tracer().total(r.seq)) << "packet " << r.seq;
    channel_access_total += sys.tracer().category_total(r.seq, LatencyCategory::ChannelAccess);
  }
  ASSERT_GT(delivered, 0u);
  EXPECT_GT(channel_access_total, Nanos{});  // the fourth category is live
  for (const TraceSpan& s : sys.tracer().spans()) {
    EXPECT_NE(kUnattributedSpan, s.name)
        << "packet " << s.seq << " has an unattributed gap of " << s.duration().count() << " ns";
  }
}

TEST(LbtE2eTest, LossConservationIncludesCollisions) {
  // Hidden-interferer collisions feed HARQ like any channel loss; every
  // offered packet must end delivered or in an explicit drop bucket.
  StackConfig cfg = StackConfig::urllc_design(/*seed=*/9);
  cfg.lbt = coex(Nanos{90'000}, Nanos{110'000});  // heavy: collisions certain
  E2eSystem sys(cfg);
  const int offered = 200;
  for (int i = 0; i < offered; ++i) sys.send_uplink_at(Nanos{1'000'000 + i * 500'000LL});
  sys.run_until(Nanos{1'000'000 + offered * 500'000LL + 100'000'000LL});
  EXPECT_GT(sys.lbt_stats().hidden_collisions, 0u);
  expect_loss_identity(sys, offered);
}

// ---------------------------------------------------------------------------
// Sharded engine

struct ShardedRun {
  std::vector<double> ul_us;
  LbtGate::Stats lbt;
  std::uint64_t delivered = 0;
};

ShardedRun run_sharded(int workers) {
  StackConfig cfg = StackConfig::urllc_design(/*seed=*/3);
  cfg.num_cells = 4;
  cfg.lbt = coex(Nanos{60'000}, Nanos{240'000});
  ShardedEngine eng(cfg, ShardedOptions{workers});
  for (int cell = 0; cell < 4; ++cell) {
    for (int i = 0; i < 40; ++i) {
      eng.send_uplink_at(Nanos{1'000'000 + i * 500'000LL + cell * 7'000LL}, cell);
    }
  }
  eng.run_until(Nanos{120'000'000});
  ShardedRun out;
  out.ul_us = eng.latency_samples_us(Direction::Uplink).samples();
  out.lbt = eng.lbt_stats();
  out.delivered = eng.packets_delivered();
  return out;
}

TEST(LbtShardedTest, DeterministicAcrossWorkerCounts) {
  // Each cell owns an independent gate seeded from its cell seed; merged
  // results must be bitwise identical for 1, 2, 4 and 8 workers.
  const ShardedRun one = run_sharded(1);
  EXPECT_GT(one.lbt.attempts, 0u);
  EXPECT_GT(one.lbt.deferral_total, Nanos{});
  for (int workers : {2, 4, 8}) {
    const ShardedRun w = run_sharded(workers);
    EXPECT_EQ(one.delivered, w.delivered) << workers << " workers";
    EXPECT_EQ(one.ul_us, w.ul_us) << workers << " workers";
    EXPECT_EQ(one.lbt.attempts, w.lbt.attempts) << workers << " workers";
    EXPECT_EQ(one.lbt.deferral_total, w.lbt.deferral_total) << workers << " workers";
    EXPECT_EQ(one.lbt.hidden_collisions, w.lbt.hidden_collisions) << workers << " workers";
    EXPECT_EQ(one.lbt.nru_airtime, w.lbt.nru_airtime) << workers << " workers";
    EXPECT_EQ(one.lbt.wifi_overlap, w.lbt.wifi_overlap) << workers << " workers";
  }
}

}  // namespace
}  // namespace u5g
