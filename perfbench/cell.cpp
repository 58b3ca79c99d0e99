// cell_nru: one E2eSystem on urllc_design with 8 UEs and Poisson UL+DL
// traffic, with every access feature on — NR-U LBT against a light Wi-Fi
// load, dynamic TDD with DL preemption, Gilbert-Elliott burst loss — run
// below saturation and then drained.
//
// An op is one offered packet, fixed by the generated arrivals. Events
// fired are an output of the simulation and are reported per op only as a
// per-layer count.
//
// A step is one 1 ms simulated slice of run_until; a block is 10 steps and
// counts the packets offered in its window. The drain after the traffic
// offers nothing and is not timed.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/e2e_system.hpp"

namespace pb {
namespace {

using namespace u5g;

constexpr int kUes = 8;
constexpr Nanos kMeanGap{4'000'000};    ///< per UE, per direction
constexpr Nanos kTraffic{20'000'000'000};  ///< arrivals in [0, kTraffic)
constexpr Nanos kWarmup{100'000'000};   ///< simulated in set-up, untimed
constexpr Nanos kDrain{2'000'000'000};  ///< untimed, after the traffic
constexpr Nanos kSlice{1'000'000};
constexpr int kSlicesPerBlock = 10;

StackConfig cell_config(std::uint64_t seed) {
  StackConfig cfg = StackConfig::urllc_design(seed);
  cfg.num_ues = kUes;
  // One SDU fills one 256-byte TB, so TB-level loss buckets count packets.
  cfg.payload_bytes = 236;
  // bench_coexistence's "moderate" Wi-Fi (20% duty). At the default
  // hidden_collision_loss of 1.0 about a third of bursts collide whatever
  // the duty, PDCP discards a quarter of the packets and the backlog grows
  // (p90 over 20 ms): that is past saturation, so hidden collisions lose
  // only 5% here.
  cfg.lbt.enabled = true;
  cfg.lbt.wifi_busy_mean = Nanos{60'000};
  cfg.lbt.wifi_idle_mean = Nanos{240'000};
  cfg.lbt.hidden_collision_loss = 0.05;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  cfg.faults.push_back(
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.01)));
  return cfg;
}

struct Arrival {
  Nanos at;
  int ue;
  bool uplink;
};

std::vector<Arrival> make_inputs(std::uint64_t seed) {
  std::vector<Arrival> in;
  Rng rng(seed ^ 0xce11ULL);
  for (int ue = 0; ue < kUes; ++ue) {
    for (const bool uplink : {true, false}) {
      double t = rng.exponential(static_cast<double>(kMeanGap.count()));
      while (t < static_cast<double>(kTraffic.count())) {
        in.push_back({Nanos{static_cast<std::int64_t>(t)}, ue, uplink});
        t += rng.exponential(static_cast<double>(kMeanGap.count()));
      }
    }
  }
  std::sort(in.begin(), in.end(), [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : (a.ue != b.ue ? a.ue < b.ue : a.uplink > b.uplink);
  });
  return in;
}

struct PassResult {
  SimOutcome outcome;
  std::uint64_t offered = 0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t harq_dropped = 0;
  std::uint64_t pdcp_discards = 0;
  std::uint64_t upgraded_slots = 0;
  std::uint64_t punctured = 0;
  LbtGate::Stats lbt;
};

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

class Cell final : public Workload {
 public:
  Cell(const Options& opt, Spans& spans)
      : opt_(opt), in_(make_inputs(opt.seed)), spans_(spans), cfg_(cell_config(opt.seed)) {}

  double setup() override {
    sys_.reset();
    const auto t0 = Clock::now();
    sys_ = std::make_unique<E2eSystem>(cfg_);
    for (const Arrival& a : in_) {
      const auto c0 = Clock::now();
      if (a.uplink) {
        sys_->send_uplink_at(a.at, a.ue);
      } else {
        sys_->send_downlink_at(a.at, a.ue);
      }
      if (spans_.on()) {
        const auto c1 = Clock::now();
        spans_.add(a.uplink ? "core.send_uplink_at" : "core.send_downlink_at", a.ue, c0, c1);
        inject_ns_ += seconds_between(c0, c1) * 1e9;
        ++injects_;
      }
    }
    sys_->run_until(kWarmup);
    now_ = kWarmup;
    next_ = static_cast<std::size_t>(
        std::lower_bound(in_.begin(), in_.end(), kWarmup,
                         [](const Arrival& a, Nanos t) { return a.at < t; }) -
        in_.begin());
    return seconds_between(t0, Clock::now());
  }

  /// The traffic in timed blocks; the drain comes in finish_pass().
  void run_pass(Timer& timer) override {
    while (now_ < kTraffic) {
      const Nanos block_end = std::min(now_ + kSlice * kSlicesPerBlock, kTraffic);
      std::uint64_t ops = 0;
      while (next_ < in_.size() && in_[next_].at < block_end) {
        ++ops;
        ++next_;
      }
      timer.begin_block();
      while (now_ < block_end) {
        const auto a = Clock::now();
        sys_->run_until(now_ + kSlice);
        const auto b = Clock::now();
        timer.add_step(a, b);
        spans_.add("core.run_until", static_cast<std::int32_t>(now_.count() / kSlice.count()),
                   a, b);
        now_ += kSlice;
      }
      timer.end_block(ops);
    }
  }

  PassOutcome finish_pass(Report& r, std::uint64_t /*pass_ops*/) override {
    sys_->run_until(kTraffic + kDrain);
    last_ = result();
    if (const std::uint64_t n = unaccounted(); n != 0) {
      r.fail("cell_nru: offered packets in no loss bucket, or MAC left stuck", n);
    }
    return {last_.outcome, last_.events};
  }

  void report_layers(const Phase& /*ph*/, Report& r) override {
    const PassResult& res = last_;
    const Nanos slot = cfg_.duplex->period() / cfg_.duplex->period_slots();
    const auto slots = static_cast<std::uint64_t>((kTraffic + kDrain).count() / slot.count());
    r.add("sim.events_per_op", frac(res.events, res.offered), "count");
    r.add("sim.events_per_batch", frac(res.events, res.batches), "count");
    r.add("core.inject_ns", injects_ == 0 ? 0.0 : inject_ns_ / static_cast<double>(injects_),
          "ns");
    r.add("phy.lbt_defer_frac", frac(res.lbt.deferred, res.lbt.attempts), "fraction");
    r.add("phy.lbt_mean_defer_us",
          res.lbt.deferred == 0 ? 0.0
                                : static_cast<double>(res.lbt.deferral_total.count()) / 1e3 /
                                      static_cast<double>(res.lbt.deferred),
          "us");
    r.add("phy.lbt_collision_frac", frac(res.lbt.hidden_collisions, res.lbt.attempts),
          "fraction");
    r.add("mac.harq_drop_frac", frac(res.harq_dropped, res.offered), "fraction");
    r.add("pdcp.discard_frac", frac(res.pdcp_discards, res.offered), "fraction");
    r.add("tdd.upgraded_slot_frac", frac(res.upgraded_slots, slots), "fraction");
    r.add("mac.punctured_retx", static_cast<double>(res.punctured), "count");
  }

 private:
  [[nodiscard]] PassResult result() const {
    PassResult r;
    std::vector<std::int64_t> lat;
    for (const PacketRecord& rec : sys_->records()) {
      if (rec.ok) lat.push_back(rec.latency().count());
    }
    r.offered = sys_->records().size();
    r.outcome = sim_outcome(std::move(lat), r.offered, opt_.deadline);
    r.events = sys_->simulator().events_fired();
    r.batches = sys_->simulator().batches_drained();
    r.harq_dropped = sys_->harq_dropped_tbs();
    r.pdcp_discards = sys_->pdcp_discards();
    r.upgraded_slots = sys_->dynamic_upgraded_slots();
    r.punctured = sys_->punctured_retx();
    r.lbt = sys_->lbt_stats();
    return r;
  }

  /// After the drain every offered packet is delivered or in exactly one
  /// loss bucket, and the MAC holds no latched SR and no queued
  /// retransmission. Returns the number of packets the identity misses
  /// (all of them when the MAC is stuck).
  [[nodiscard]] std::uint64_t unaccounted() const {
    std::uint64_t lost = 0;
    for (const PacketRecord& rec : sys_->records()) lost += rec.ok ? 0 : 1;
    const std::uint64_t buckets = sys_->harq_dropped_tbs() + sys_->stranded_drops() +
                                  sys_->pdcp_discards() + sys_->fault_counters().upf_drops;
    const E2eSystem::MacBacklog b = sys_->mac_backlog();
    if (b.sr_pending != 0 || b.retx_tbs != 0) return sys_->records().size();
    return lost > buckets ? lost - buckets : buckets - lost;
  }

  const Options& opt_;
  const std::vector<Arrival> in_;
  Spans& spans_;
  StackConfig cfg_;
  std::unique_ptr<E2eSystem> sys_;
  Nanos now_{};
  std::size_t next_ = 0;
  double inject_ns_ = 0.0;
  std::uint64_t injects_ = 0;
  PassResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_cell(const Options& opt, Spans& spans) {
  return std::make_unique<Cell>(opt, spans);
}

}  // namespace pb
