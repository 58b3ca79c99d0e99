// Randomised property tests ("fuzz-lite"): drive the simulator kernel and
// the protocol entities with thousands of random operation sequences and
// check the invariants that every schedule must preserve. Seeds are fixed,
// so failures replay deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mac/mac_pdu.hpp"
#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "pdcp/cipher.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "rlc/rlc_entity.hpp"
#include "sim/simulator.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Simulator kernel vs a trivial reference implementation

TEST(FuzzSimulator, MatchesReferenceModel) {
  // Reference model: the set of (time, id) scheduled minus cancellations;
  // the kernel must fire exactly that set, ordered by (time, schedule id).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::map<int, std::int64_t> reference;  // id -> time (pending, not cancelled)
    std::map<int, EventHandle> handles;     // pending handles by id
    std::vector<int> fired;
    int next_id = 0;
    std::int64_t horizon = 0;

    for (int i = 0; i < 400; ++i) {
      const double dice = rng.uniform();
      if (dice < 0.7 || handles.empty()) {
        const auto when =
            horizon + static_cast<std::int64_t>(rng.uniform_int(1'000'000));
        const int id = next_id++;
        handles[id] = sim.schedule_at(Nanos{when}, [&fired, id] { fired.push_back(id); });
        reference[id] = when;
      } else if (dice < 0.85) {
        auto it = handles.begin();
        std::advance(it, static_cast<long>(rng.uniform_int(handles.size())));
        EXPECT_TRUE(sim.cancel(it->second)) << "seed " << seed;
        reference.erase(it->first);
        handles.erase(it);
      } else {
        horizon += static_cast<std::int64_t>(rng.uniform_int(300'000));
        sim.run_until(Nanos{horizon});
        for (auto it = handles.begin(); it != handles.end();) {
          if (reference.at(it->first) <= horizon) {
            it = handles.erase(it);  // already fired; handle no longer pending
          } else {
            ++it;
          }
        }
      }
    }
    sim.run_until();

    // Expected firing order: by (time, id).
    std::vector<std::pair<std::int64_t, int>> expected;
    for (const auto& [id, when] : reference) expected.emplace_back(when, id);
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fired.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(fired[i], expected[i].second) << "seed " << seed << " pos " << i;
    }
  }
}

// Naive reference kernel: a plain vector of (time, id, cancelled) scanned
// for the minimum on every pop. Same (time, schedule-order) contract as the
// real kernel, trivially correct, O(n) per event. `on_fire`, when set, runs
// after each live event is logged and may schedule more (self-rescheduling
// chains).
class ReferenceKernel {
 public:
  std::function<void(int id, std::int64_t when)> on_fire;

  int schedule(std::int64_t when) {
    events_.push_back({when, next_id_++, false});
    return events_.back().id;
  }

  bool cancel(int id) {
    for (Ev& e : events_) {
      if (e.id == id) {
        e.cancelled = true;
        return true;
      }
    }
    return false;
  }

  /// Fire everything with when <= until; append (id, when) to `log`.
  void run_until(std::int64_t until, std::vector<std::pair<int, std::int64_t>>& log) {
    while (true) {
      const Ev* best = nullptr;
      for (const Ev& e : events_) {
        if (e.when > until) continue;
        if (best == nullptr || e.when < best->when ||
            (e.when == best->when && e.id < best->id)) {
          best = &e;
        }
      }
      if (best == nullptr) break;
      const Ev ev = *best;
      events_.erase(events_.begin() + (best - events_.data()));
      if (!ev.cancelled) fire(ev, log);
    }
  }

  /// Fire exactly one live event if any; returns whether one fired.
  bool step(std::vector<std::pair<int, std::int64_t>>& log) {
    const std::size_t before = log.size();
    while (!events_.empty() && log.size() == before) {
      const Ev* best = &events_.front();
      for (const Ev& e : events_) {
        if (e.when < best->when || (e.when == best->when && e.id < best->id)) best = &e;
      }
      const Ev ev = *best;
      events_.erase(events_.begin() + (best - events_.data()));
      if (!ev.cancelled) fire(ev, log);
    }
    return log.size() != before;
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const Ev& e : events_) n += e.cancelled ? 0 : 1;
    return n;
  }

 private:
  struct Ev {
    std::int64_t when;
    int id;
    bool cancelled;
  };
  void fire(const Ev& ev, std::vector<std::pair<int, std::int64_t>>& log) {
    log.emplace_back(ev.id, ev.when);
    if (on_fire) on_fire(ev.id, ev.when);
  }
  std::vector<Ev> events_;
  int next_id_ = 0;
};

// Property test: randomized schedule/cancel/run_until/step sequences against
// the naive reference queue; identical firing order AND identical clock
// trace (the simulator's now() at each firing must be the scheduled time).
TEST(FuzzSimulator, MatchesNaiveReferenceKernelWithClockTrace) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 2654435761ULL);
    Simulator sim;
    ReferenceKernel ref;
    std::vector<std::pair<int, std::int64_t>> sim_log;  // (id, now at firing)
    std::vector<std::pair<int, std::int64_t>> ref_log;
    std::map<int, EventHandle> handles;  // by reference id, cancellable only
    std::int64_t horizon = 0;

    for (int op = 0; op < 600; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.55 || handles.empty()) {
        const auto when = horizon + static_cast<std::int64_t>(rng.uniform_int(500'000));
        const int id = ref.schedule(when);
        handles[id] = sim.schedule_at(Nanos{when}, [&sim_log, &sim, id] {
          sim_log.emplace_back(id, sim.now().count());
        });
      } else if (dice < 0.72) {
        auto it = handles.begin();
        std::advance(it, static_cast<long>(rng.uniform_int(handles.size())));
        EXPECT_EQ(sim.cancel(it->second), ref.cancel(it->first)) << "seed " << seed;
        handles.erase(it);
      } else if (dice < 0.88) {
        horizon += static_cast<std::int64_t>(rng.uniform_int(200'000));
        sim.run_until(Nanos{horizon});
        ref.run_until(horizon, ref_log);
      } else {
        EXPECT_EQ(sim.step(), ref.step(ref_log)) << "seed " << seed;
        if (!ref_log.empty()) horizon = std::max(horizon, ref_log.back().second);
      }
      // Fired handles stay in `handles`; both kernels must agree that
      // cancelling them fails, so they are left in deliberately. Drop only
      // what the logs say fired to keep the map small.
      for (std::size_t k = handles.size() > 64 ? ref_log.size() : std::size_t{0}; k > 0; --k) {
        handles.erase(ref_log[k - 1].first);
      }
      EXPECT_EQ(sim.pending_events(), ref.live()) << "seed " << seed << " op " << op;
    }
    sim.run_until();
    ref.run_until(std::numeric_limits<std::int64_t>::max(), ref_log);

    ASSERT_EQ(sim_log.size(), ref_log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref_log.size(); ++i) {
      EXPECT_EQ(sim_log[i].first, ref_log[i].first) << "seed " << seed << " pos " << i;
      EXPECT_EQ(sim_log[i].second, ref_log[i].second)
          << "seed " << seed << " pos " << i << ": clock trace diverged";
    }
  }
}

TEST(FuzzSimulatorOrdering, FiringLogIsTimeOrdered) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::vector<std::int64_t> fire_times;
    std::vector<EventHandle> pending;
    int scheduled = 0;
    int cancelled = 0;
    for (int i = 0; i < 500; ++i) {
      const auto when = static_cast<std::int64_t>(rng.uniform_int(10'000'000));
      pending.push_back(sim.schedule_at(Nanos{when}, [&fire_times, &sim] {
        fire_times.push_back(sim.now().count());
      }));
      ++scheduled;
      if (rng.bernoulli(0.2) && !pending.empty()) {
        const auto idx = rng.uniform_int(pending.size());
        if (sim.cancel(pending[idx])) ++cancelled;
        pending.erase(pending.begin() + static_cast<long>(idx));
      }
    }
    sim.run_until();
    EXPECT_EQ(fire_times.size(), static_cast<std::size_t>(scheduled - cancelled));
    EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end())) << "seed " << seed;
    EXPECT_TRUE(sim.idle());
  }

  // Deep backlog, the shape of a full-stack run with its arrivals injected
  // up front: a few thousand far-future events, unsorted and with timestamp
  // ties, keep the heap deep while near-term self-rescheduling chains,
  // one-shots, cancels, run_until and step() calls work through it. Checked
  // against the reference kernel on firing order and clock trace.
  using Log = std::vector<std::pair<int, std::int64_t>>;
  struct SimChain {  // fires, logs, and re-arms itself `left` more times
    Simulator* sim;
    Log* log;
    int* next_id;
    std::int64_t period;
    int left;
    int id;
    void operator()() const {
      log->emplace_back(id, sim->now().count());
      if (left > 0) {
        sim->schedule_after(Nanos{period}, SimChain{sim, log, next_id, period, left - 1,
                                                    (*next_id)++});
      }
    }
  };
  for (std::uint64_t seed = 200; seed < 204; ++seed) {
    Rng rng(seed);
    Simulator sim;
    ReferenceKernel ref;
    Log sim_log;
    Log ref_log;
    int sim_next_id = 0;  // mirrors the reference kernel's id counter
    std::map<int, std::pair<std::int64_t, int>> ref_chains;  // id -> (period, left)
    ref.on_fire = [&ref, &ref_chains](int id, std::int64_t when) {
      const auto it = ref_chains.find(id);
      if (it == ref_chains.end() || it->second.second == 0) return;
      const auto [period, left] = it->second;
      ref_chains[ref.schedule(when + period)] = {period, left - 1};
    };
    std::vector<std::pair<int, EventHandle>> handles;  // (id, handle), cancellable
    const auto one_shot = [&](std::int64_t when) {
      const int id = ref.schedule(when);
      ASSERT_EQ(id, sim_next_id++);
      handles.emplace_back(id, sim.schedule_at(Nanos{when}, [&sim_log, &sim, id] {
        sim_log.emplace_back(id, sim.now().count());
      }));
    };

    // 3000 entries over 400 instants in [5 ms, 2 s]: a 4-ary heap of more
    // than 341 entries is at least 6 levels deep.
    for (int i = 0; i < 3000; ++i) {
      one_shot(5'000'000 + static_cast<std::int64_t>(rng.uniform_int(400)) * 5'000'000);
    }
    ASSERT_GT(sim.pending_events(), 341u);

    for (int op = 0; op < 1500; ++op) {
      const std::int64_t now = sim.now().count();
      const double dice = rng.uniform();
      if (dice < 0.3) {
        one_shot(now + static_cast<std::int64_t>(rng.uniform_int(2'000'000)));
      } else if (dice < 0.45) {
        const auto period = 1'000 + static_cast<std::int64_t>(rng.uniform_int(20)) * 1'000;
        const int left = static_cast<int>(rng.uniform_int(32));
        const std::int64_t when = now + static_cast<std::int64_t>(rng.uniform_int(100'000));
        const int id = ref.schedule(when);
        ASSERT_EQ(id, sim_next_id++);
        ref_chains[id] = {period, left};
        handles.emplace_back(
            id, sim.schedule_at(Nanos{when},
                                SimChain{&sim, &sim_log, &sim_next_id, period, left, id}));
      } else if (dice < 0.65 && !handles.empty()) {
        const std::size_t k = rng.uniform_int(handles.size());
        EXPECT_EQ(sim.cancel(handles[k].second), ref.cancel(handles[k].first))
            << "seed " << seed << " op " << op;
        handles[k] = handles.back();
        handles.pop_back();
      } else if (dice < 0.85) {
        const std::int64_t until = now + static_cast<std::int64_t>(rng.uniform_int(500'000));
        sim.run_until(Nanos{until});
        ref.run_until(until, ref_log);
      } else {
        EXPECT_EQ(sim.step(), ref.step(ref_log)) << "seed " << seed << " op " << op;
      }
      EXPECT_EQ(sim.pending_events(), ref.live()) << "seed " << seed << " op " << op;
    }
    sim.run_until();
    ref.run_until(std::numeric_limits<std::int64_t>::max(), ref_log);
    EXPECT_TRUE(sim.idle());
    ASSERT_EQ(sim_log.size(), ref_log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref_log.size(); ++i) {
      ASSERT_EQ(sim_log[i], ref_log[i]) << "seed " << seed << " pos " << i
                                        << ": firing order or clock trace diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// RLC under random segmentation, loss and reordering

ByteBuffer random_payload(Rng& rng, std::size_t n) {
  ByteBuffer b(n);
  for (auto& x : b.bytes()) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  return b;
}

bool same_bytes(const ByteBuffer& a, const ByteBuffer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.bytes()[i] != b.bytes()[i]) return false;
  }
  return true;
}

TEST(FuzzRlc, RandomGrantsReassembleExactly) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 7919);
    RlcTx tx(RlcMode::UM);
    RlcRx rx(RlcMode::UM);

    std::vector<ByteBuffer> sent;
    const int n_sdus = 1 + static_cast<int>(rng.uniform_int(6));
    for (int i = 0; i < n_sdus; ++i) {
      const std::size_t size = 1 + rng.uniform_int(2000);
      ByteBuffer sdu = random_payload(rng, size);
      sent.push_back(sdu);
      tx.enqueue(std::move(sdu), Nanos{static_cast<std::int64_t>(i)});
    }

    std::vector<ByteBuffer> received;
    int guard = 0;
    while (tx.has_data() && ++guard < 10'000) {
      const std::size_t grant = 5 + rng.uniform_int(300);
      auto pdu = tx.pull(grant);
      if (!pdu) continue;
      rx.receive(std::move(pdu->pdu),
                 [&](ByteBuffer&& sdu, const PacketMeta&) { received.push_back(std::move(sdu)); });
    }
    ASSERT_LT(guard, 10'000) << "seed " << seed << ": segmentation did not drain";
    ASSERT_EQ(received.size(), sent.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_TRUE(same_bytes(received[i], sent[i])) << "seed " << seed << " sdu " << i;
    }
  }
}

TEST(FuzzRlc, AmRecoversFromRandomLoss) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 104729);
    RlcTx tx(RlcMode::AM);
    RlcRx rx(RlcMode::AM);

    std::vector<ByteBuffer> sent;
    const int n_sdus = 4 + static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < n_sdus; ++i) {
      ByteBuffer sdu = random_payload(rng, 10 + rng.uniform_int(100));
      sent.push_back(sdu);
      tx.enqueue(std::move(sdu), Nanos{static_cast<std::int64_t>(i)});
    }

    std::vector<ByteBuffer> received;
    // Rounds of transmit-with-loss followed by status-driven repair.
    for (int round = 0; round < 20 && received.size() < sent.size(); ++round) {
      int guard = 0;
      while (++guard < 1000) {
        auto pdu = tx.pull(256);
        if (!pdu) break;
        if (rng.bernoulli(0.3)) continue;  // lost on the air
        rx.receive(std::move(pdu->pdu),
                   [&](ByteBuffer&& sdu, const PacketMeta&) { received.push_back(std::move(sdu)); });
      }
      const auto status = rx.build_status();
      tx.on_status(status.ack_sn, status.nacks);
      // t-PollRetransmit expiry: PDUs the receiver never saw are above its
      // ACK horizon and will never be NACKed — the sender re-queues them.
      tx.retransmit_unacked();
    }
    // AM delivers on completion, so retransmitted SDUs arrive out of order
    // (in-order delivery is PDCP's job, one layer up). Compare as sets:
    // every sent SDU delivered exactly once, bit-exact.
    ASSERT_EQ(received.size(), sent.size()) << "seed " << seed;
    std::vector<bool> matched(sent.size(), false);
    for (const ByteBuffer& got : received) {
      bool found = false;
      for (std::size_t i = 0; i < sent.size(); ++i) {
        if (!matched[i] && same_bytes(got, sent[i])) {
          matched[i] = true;
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "seed " << seed << ": delivered an SDU never sent (or twice)";
    }
  }
}

// ---------------------------------------------------------------------------
// PDCP under random reordering and duplication

TEST(FuzzPdcp, RandomReorderAndDuplicatesDeliverInOrderOnce) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 31337);
    PdcpTx tx;
    PdcpRx rx;

    const int n = 30;
    std::vector<ByteBuffer> pdus;
    for (int i = 0; i < n; ++i) {
      ByteBuffer b = random_payload(rng, 8 + rng.uniform_int(64));
      tx.protect(b);
      pdus.push_back(std::move(b));
    }
    // Shuffle within a bounded window (realistic HARQ-induced reordering),
    // and duplicate a few PDUs.
    std::vector<ByteBuffer> wire;
    for (int i = 0; i < n; ++i) {
      wire.push_back(pdus[static_cast<std::size_t>(i)]);
      if (rng.bernoulli(0.2)) wire.push_back(pdus[static_cast<std::size_t>(i)]);  // dup
    }
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
      if (rng.bernoulli(0.4)) std::swap(wire[i], wire[i + 1]);
    }

    std::vector<std::uint32_t> delivered;
    for (ByteBuffer& b : wire) {
      rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta& m) { delivered.push_back(m.count); });
    }
    rx.flush([&](ByteBuffer&&, const PacketMeta& m) { delivered.push_back(m.count); });

    // Exactly once, strictly increasing.
    EXPECT_EQ(delivered.size(), static_cast<std::size_t>(n)) << "seed " << seed;
    EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end())) << "seed " << seed;
    EXPECT_TRUE(std::adjacent_find(delivered.begin(), delivered.end()) == delivered.end());
  }
}

// ---------------------------------------------------------------------------
// MAC PDU multiplexing: randomized round trips (including subPDU counts past
// MacSubPdus' inline capacity, forcing the SmallVec heap spill) and
// truncated / bit-flipped transport blocks, which must be rejected cleanly
// or parsed into well-formed subPDUs — never read out of bounds (the
// ASan/UBSan CI job runs this test).

TEST(FuzzMacPdu, RandomRoundTripsSurviveHeapSpill) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed ^ 0x3AC0ULL);
    // 1..10 subPDUs: > 4 exercises the SmallVec<MacSubPdu, 4> heap path.
    const int n = 1 + static_cast<int>(rng.uniform_int(10));
    MacSubPdus in;
    std::size_t needed = 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t len = 1 + rng.uniform_int(64);
      MacSubPdu sp;
      sp.lcid = rng.bernoulli(0.2) ? Lcid::ShortBsr : Lcid::Drb1;
      sp.payload = random_payload(rng, len);
      needed += kMacSubheaderBytes + len;
      in.push_back(std::move(sp));
    }
    // Random padding slack; occasionally large enough for a padding subPDU.
    const std::size_t tb_bytes = needed + rng.uniform_int(rng.bernoulli(0.3) ? 40 : 3);

    ByteBuffer tb = build_mac_pdu({in.data(), in.size()}, tb_bytes);
    ASSERT_EQ(tb_bytes, tb.size()) << "seed " << seed;
    auto out = parse_mac_pdu(std::move(tb));
    ASSERT_TRUE(out.has_value()) << "seed " << seed;
    ASSERT_EQ(in.size(), out->size()) << "seed " << seed;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i].lcid, (*out)[i].lcid) << "seed " << seed;
      ASSERT_EQ(in[i].payload.size(), (*out)[i].payload.size()) << "seed " << seed;
      EXPECT_TRUE(std::equal(in[i].payload.bytes().begin(), in[i].payload.bytes().end(),
                             (*out)[i].payload.bytes().begin()))
          << "seed " << seed;
    }
    // A block too small for the subPDUs must throw, not truncate silently.
    if (needed > 1) {
      EXPECT_THROW((void)build_mac_pdu({in.data(), in.size()}, needed - 1), std::length_error);
    }
  }
}

TEST(FuzzMacPdu, TruncatedAndCorruptBlocksRejectCleanly) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed ^ 0xBADC0DEULL);
    const int n = 1 + static_cast<int>(rng.uniform_int(8));
    MacSubPdus in;
    std::size_t needed = 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t len = 1 + rng.uniform_int(48);
      in.push_back(MacSubPdu{Lcid::Drb1, random_payload(rng, len)});
      needed += kMacSubheaderBytes + len;
    }
    const ByteBuffer original = build_mac_pdu({in.data(), in.size()}, needed);

    // Truncation: drop a random tail. The parser must either reject the
    // block or deliver a prefix of the original subPDUs — and never a
    // payload that was not fully present.
    {
      const std::size_t cut = rng.uniform_int(original.size());
      ByteBuffer truncated(cut);
      std::copy_n(original.bytes().begin(), cut, truncated.bytes().begin());
      auto out = parse_mac_pdu(std::move(truncated));
      if (out) {
        ASSERT_LE(out->size(), in.size()) << "seed " << seed;
        for (std::size_t i = 0; i < out->size(); ++i) {
          EXPECT_EQ(in[i].payload.size(), (*out)[i].payload.size()) << "seed " << seed;
        }
      }
    }
    // Bit flips: corrupt random header/payload bytes. Any outcome is legal
    // except a crash or an out-of-bounds payload.
    {
      ByteBuffer corrupt = original;
      const int flips = 1 + static_cast<int>(rng.uniform_int(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.uniform_int(corrupt.size());
        corrupt.bytes()[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      }
      auto out = parse_mac_pdu(std::move(corrupt));
      if (out) {
        std::size_t total = 0;
        for (const MacSubPdu& sp : *out) total += kMacSubheaderBytes + sp.payload.size();
        EXPECT_LE(total, original.size()) << "seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PDCP cipher + integrity: the word-wise production kernels against their
// byte-wise oracles (the pre-optimisation implementations, kept verbatim in
// test_datapath.cpp and re-stated here), over random lengths, alignments
// and security-context parameters.

std::uint64_t ref_keystream_word(const CipherContext& ctx, std::uint32_t count,
                                 std::uint64_t block) {
  std::uint64_t x = ctx.key ^ (static_cast<std::uint64_t>(count) << 32) ^
                    (static_cast<std::uint64_t>(ctx.bearer) << 8) ^ (ctx.downlink ? 1u : 0u);
  x += (block + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void ref_apply_keystream(std::span<std::uint8_t> data, const CipherContext& ctx,
                         std::uint32_t count) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t word = ref_keystream_word(ctx, count, i / 8);
    data[i] ^= static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
}

std::uint32_t ref_integrity_tag(std::span<const std::uint8_t> data, const CipherContext& ctx,
                                std::uint32_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ ctx.key ^ count ^
                    (static_cast<std::uint64_t>(ctx.bearer) << 40) ^ (ctx.downlink ? 2u : 0u);
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

TEST(FuzzCipher, WordWiseKernelsMatchByteWiseOracles) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed ^ 0xC1F3ULL);
    const std::size_t len = rng.uniform_int(320);  // 0..319: every word tail
    const CipherContext ctx{.key = rng.next_u64(),
                            .bearer = static_cast<std::uint32_t>(rng.uniform_int(33)),
                            .downlink = rng.bernoulli(0.5)};
    const auto count = static_cast<std::uint32_t>(rng.next_u64());

    std::vector<std::uint8_t> plain(len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());

    // Cipher: production vs oracle, plus the involution property.
    std::vector<std::uint8_t> prod = plain;
    std::vector<std::uint8_t> ref = plain;
    apply_keystream(prod, ctx, count);
    ref_apply_keystream(ref, ctx, count);
    EXPECT_EQ(ref, prod) << "seed " << seed << " len " << len;
    apply_keystream(prod, ctx, count);
    EXPECT_EQ(plain, prod) << "seed " << seed << " len " << len;

    // Integrity: production vs oracle; any single bit flip must change it.
    const std::uint32_t tag = integrity_tag(plain, ctx, count);
    EXPECT_EQ(ref_integrity_tag(plain, ctx, count), tag) << "seed " << seed;
    if (len > 0) {
      std::vector<std::uint8_t> flipped = plain;
      const std::size_t pos = rng.uniform_int(len);
      flipped[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
      EXPECT_NE(tag, integrity_tag(flipped, ctx, count)) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Dynamic slot-format policy: random queue-state sequences

TEST(FuzzDynamicTdd, RandomQueueSequencesKeepPolicyInvariants) {
  // Three base skeletons with different static structure, random knobs and
  // queue-state sequences. Invariants per step:
  //   1. determinism — two identically-fed instances emit identical formats;
  //   2. UL starvation bound — at most ul_guard_slots consecutive decisions
  //      carry a DL upgrade, then a clean slot goes out;
  //   3. render()/parse() round-trips losslessly;
  //   4. monotone relaxation — the effective SlotFormat never demotes a
  //      symbol the static base could use, and a committed overlay keeps
  //      dl_capable/ul_capable a superset of the base.
  const TddCommonConfig bases[] = {TddCommonConfig::du(kMu2), TddCommonConfig::dm(kMu2),
                                   TddCommonConfig::mu(kMu2)};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const TddCommonConfig& base = bases[seed % 3];
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    DynamicTddConfig cfg;
    cfg.enabled = true;
    cfg.guard_slots = static_cast<int>(rng.uniform_int(3));
    cfg.hold_slots = 1 + static_cast<int>(rng.uniform_int(8));
    cfg.ul_guard_slots = 1 + static_cast<int>(rng.uniform_int(4));

    DynamicFormatPolicy a(base, cfg);
    DynamicFormatPolicy b(base, cfg);
    auto shared = std::make_shared<TddCommonConfig>(base);
    DynamicDuplexConfig overlay(shared);
    int dl_run = 0;
    for (SlotIndex k = 0; k < 300; ++k) {
      TddQueueState q;
      q.sr_pending = static_cast<std::uint32_t>(rng.uniform_int(4));
      q.cg_armed = static_cast<std::uint32_t>(rng.uniform_int(4));
      q.ul_retx_tbs = static_cast<std::uint32_t>(rng.uniform_int(3));
      q.ul_queued_sdus = static_cast<std::uint32_t>(rng.uniform_int(5));
      q.dl_queued_sdus = static_cast<std::uint32_t>(rng.uniform_int(5));
      q.dl_inflight_tbs = static_cast<std::uint32_t>(rng.uniform_int(3));

      const DecidedFormat fa = a.decide(k, q);
      const DecidedFormat fb = b.decide(k, q);
      ASSERT_EQ(fa, fb) << "seed " << seed << " slot " << k;

      if (fa.added_dl != 0) {
        ++dl_run;
        EXPECT_LE(dl_run, cfg.ul_guard_slots) << "seed " << seed << " slot " << k;
      } else {
        dl_run = 0;
      }

      const auto parsed = DecidedFormat::parse(fa.render());
      ASSERT_TRUE(parsed.has_value()) << fa.render();
      EXPECT_EQ(fa, *parsed);

      const SlotIndex target = k + cfg.guard_slots;
      const std::uint16_t bdl = base.dl_mask(target);
      const std::uint16_t bul = base.ul_mask(target);
      const SlotFormat sf = fa.to_slot_format(bdl, bul);
      overlay.commit(target, fa);
      for (int s = 0; s < kSymbolsPerSlot; ++s) {
        const bool base_d = (bdl >> s) & 1u;
        const bool base_u = (bul >> s) & 1u;
        // A base-DL-only symbol may gain UL (becoming Flexible) but can
        // never render Uplink-only; symmetrically for base-UL symbols.
        if (base_d) EXPECT_NE(sf.symbols[static_cast<std::size_t>(s)], SymbolKind::Uplink);
        if (base_u) EXPECT_NE(sf.symbols[static_cast<std::size_t>(s)], SymbolKind::Downlink);
        if (base_d) EXPECT_TRUE(overlay.dl_capable(target, s));
        if (base_u) EXPECT_TRUE(overlay.ul_capable(target, s));
      }
    }
    // Replaying the identical sequence on a fresh policy reproduces the
    // upgrade count: the decision is a pure function of the fed sequence.
    EXPECT_EQ(a.upgraded_slots(), b.upgraded_slots());
  }
}

}  // namespace
}  // namespace u5g
