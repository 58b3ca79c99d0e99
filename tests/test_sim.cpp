// Unit tests for the discrete-event kernel, including the slot-map
// tombstone machinery and the small-buffer Action's zero-allocation
// guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "counting_alloc.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Nanos{30}, [&] { order.push_back(3); });
  sim.schedule_at(Nanos{10}, [&] { order.push_back(1); });
  sim.schedule_at(Nanos{20}, [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Nanos{30});
}

TEST(SimulatorTest, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, CoalescedSameTimestampFiringMatchesReferenceModel) {
  // Property test for same-timestamp firing: random workloads with heavy
  // timestamp ties — including events that schedule children at the *same*
  // timestamp mid-drain, which take a later sequence number and so fire
  // after everything already pending there — fire in exactly the (time,
  // scheduling-order) sequence of a flat-list reference model.
  constexpr int kInitial = 64;
  constexpr int kTimes = 7;  // 64 events over 7 timestamps: ties everywhere
  constexpr int kSpawnBase = 10000;
  constexpr int kSpawnCap = kSpawnBase + 200;
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const auto h = [trial](int id) {
      return splitmix64(trial * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id));
    };
    const auto time_of = [&](int id) {
      return static_cast<std::int64_t>(h(id) % kTimes) * 100;
    };

    // Reference model: a flat list ordered by (time, scheduling seq); a
    // fired event may append a child at its own timestamp or 50 ns later.
    struct Rec {
      std::int64_t t;
      std::uint64_t seq;
      int id;
    };
    std::vector<Rec> pending;
    std::vector<int> ref_order;
    std::uint64_t seq = 0;
    for (int id = 0; id < kInitial; ++id) pending.push_back({time_of(id), seq++, id});
    int ref_spawn = kSpawnBase;
    while (!pending.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < pending.size(); ++i) {
        if (pending[i].t < pending[best].t ||
            (pending[i].t == pending[best].t && pending[i].seq < pending[best].seq)) {
          best = i;
        }
      }
      const Rec r = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      ref_order.push_back(r.id);
      if (ref_spawn < kSpawnCap) {
        const std::uint64_t kind = h(r.id) % 3;
        if (kind == 0) pending.push_back({r.t, seq++, ref_spawn++});
        else if (kind == 1) pending.push_back({r.t + 50, seq++, ref_spawn++});
      }
    }

    // The kernel, driven by the identical spawn script.
    Simulator sim;
    std::vector<int> order;
    int spawn = kSpawnBase;
    std::function<void(int, std::int64_t)> fire = [&](int id, std::int64_t t) {
      order.push_back(id);
      if (spawn < kSpawnCap) {
        const std::uint64_t kind = h(id) % 3;
        if (kind == 0) {
          const int c = spawn++;
          sim.schedule_at(Nanos{t}, [&fire, c, t] { fire(c, t); });
        } else if (kind == 1) {
          const int c = spawn++;
          sim.schedule_at(Nanos{t + 50}, [&fire, c, t] { fire(c, t + 50); });
        }
      }
    };
    for (int id = 0; id < kInitial; ++id) {
      const std::int64_t t = time_of(id);
      sim.schedule_at(Nanos{t}, [&fire, id, t] { fire(id, t); });
    }
    sim.run_until();
    ASSERT_EQ(ref_order, order) << "trial " << trial;
  }
}

TEST(SimulatorTest, BatchesCountRunsOfEqualTimestamps) {
  // A batch is a maximal run of consecutively popped entries with equal
  // `when`, tombstones included: a same-timestamp child spawned mid-drain
  // joins its parent's batch, and a cancelled event alone at its instant
  // still counts as one.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(5_us, [&sim, &fired, i] {
      ++fired;
      if (i == 3) sim.schedule_at(5_us, [&fired] { ++fired; });
    });
  }
  sim.cancel(sim.schedule_at(6_us, [&fired] { ++fired; }));
  sim.schedule_at(7_us, [&fired] { ++fired; });
  sim.schedule_at(7_us, [&fired] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(sim.events_fired(), 11u);
  EXPECT_EQ(sim.batches_drained(), 3u);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  Nanos fired{-1};
  sim.schedule_at(Nanos{100}, [&] {
    sim.schedule_after(Nanos{50}, [&] { fired = sim.now(); });
  });
  sim.run_until();
  EXPECT_EQ(fired, Nanos{150});
}

TEST(SimulatorTest, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(Nanos{100}, [] {});
  sim.run_until();
  EXPECT_THROW(sim.schedule_at(Nanos{50}, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RunUntilBoundsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_us, [&] { ++fired; });
  sim.schedule_at(30_us, [&] { ++fired; });
  sim.run_until(20_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_us);  // clock advanced to the bound
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(40_us);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactBoundFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(20_us, [&] { fired = true; });
  sim.run_until(20_us);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(Nanos{10}, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double cancel is a no-op
  sim.run_until();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(Nanos{1}, [] {});
  sim.run_until();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, CancelInvalidHandle) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(SimulatorTest, PendingAccounting) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  const auto h1 = sim.schedule_at(1_us, [] {});
  sim.schedule_at(2_us, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until();
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Nanos{1}, [&] { ++fired; });
  sim.schedule_at(Nanos{2}, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, StepSkipsCancelled) {
  Simulator sim;
  int fired = 0;
  const auto h = sim.schedule_at(Nanos{1}, [&] { ++fired; });
  sim.schedule_at(Nanos{2}, [&] { ++fired; });
  sim.cancel(h);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Nanos{2});
}

TEST(SimulatorTest, EventsScheduledDuringRunAreFired) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(1_us, chain);
  };
  sim.schedule_at(Nanos{0}, chain);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4_us);
}

// ---------------------------------------------------------------------------
// Slot recycling / tombstone semantics

TEST(SimulatorTest, StaleHandleAfterSlotReuseIsInert) {
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  const EventHandle h1 = sim.schedule_at(Nanos{10}, [&] { first_fired = true; });
  EXPECT_TRUE(sim.cancel(h1));
  // The next schedule may recycle h1's storage; the stale handle must not be
  // able to cancel the new event.
  const EventHandle h2 = sim.schedule_at(Nanos{20}, [&] { second_fired = true; });
  EXPECT_FALSE(sim.cancel(h1));
  sim.run_until();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(sim.cancel(h2));  // already fired
}

TEST(SimulatorTest, CancelReleasesCapturedResourcesEagerly) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventHandle h = sim.schedule_at(Nanos{10}, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_TRUE(watch.expired());  // tombstoning destroyed the closure
  sim.run_until();
}

TEST(SimulatorTest, ManyInterleavedCancelsKeepOrdering) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(Nanos{100 - i}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  sim.run_until();
  ASSERT_EQ(order.size(), 50u);
  // Survivors are the odd i, firing at when=100-i in increasing time order.
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], 99 - static_cast<int>(2 * k));
  }
}

// ---------------------------------------------------------------------------
// Action: small-buffer storage and move semantics

TEST(ActionTest, InvokesSmallAndLargeCallables) {
  int hits = 0;
  Action small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // > kInlineSize of captured state forces the heap path.
  struct Big {
    double payload[32];
  };
  Big big{};
  big.payload[0] = 2.5;
  double seen = 0.0;
  Action large([big, &seen] { seen = big.payload[0]; });
  large();
  EXPECT_EQ(seen, 2.5);
}

TEST(ActionTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  Action a([t = std::move(token)] { (void)t; });
  EXPECT_FALSE(watch.expired());
  a.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(ActionTest, SmallActionIsHeapFree) {
  void* big_enough[3] = {nullptr, nullptr, nullptr};
  const std::size_t before = g_allocs.load();
  Action a([big_enough] { (void)big_enough; });  // 3 captured words
  a();
  a.reset();
  EXPECT_EQ(g_allocs.load(), before);
}

// ---------------------------------------------------------------------------
// Zero heap allocations in kernel steady state (small actions)

TEST(SimulatorTest, SteadyStateScheduleFireCancelIsHeapFree) {
  Simulator sim;
  long fired = 0;
  // Warm-up: push the queue, slot map and free list past the high-water mark
  // so the vectors keep their capacity for the measured phase.
  std::vector<EventHandle> warm;
  for (int i = 0; i < 256; ++i) {
    warm.push_back(sim.schedule_at(Nanos{i}, [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < warm.size(); i += 2) sim.cancel(warm[i]);
  sim.run_until();
  warm.clear();
  warm.reserve(256);

  const std::size_t before = g_allocs.load();
  for (int round = 0; round < 4; ++round) {
    const Nanos base = sim.now();
    warm.clear();
    for (int i = 0; i < 128; ++i) {
      warm.push_back(sim.schedule_at(base + Nanos{i + 1}, [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < warm.size(); i += 3) sim.cancel(warm[i]);
    sim.run_until();
  }
  EXPECT_EQ(g_allocs.load(), before) << "kernel steady state must not touch the heap";
  EXPECT_GT(fired, 0);
}

}  // namespace
}  // namespace u5g
