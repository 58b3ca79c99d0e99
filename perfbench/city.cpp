// city_1m: the 1M-UE row of bench_citywide (1000 cells x 1000 background
// UEs, one tracked grant-free UE per cell, inter-cell coupling 0.005) on
// the sharded engine at one worker.
//
// An op is one UE-slot simulated: cells x (background + tracked UEs) x
// slots, fixed by the configuration, never by what the engine does. Events
// fired and grants used are outputs of the simulation — an engine that
// fires fewer events for the same UE-slots must read as faster, not slower.
//
// A step is one slot (0.5 ms simulated) of run_until; a block is four steps.
// One pass simulates kHorizon, 1000 slots; the pass repeats, rebuilt from
// the same inputs, until --seconds of blocks are measured.

#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sim/sharded.hpp"

namespace pb {
namespace {

using namespace u5g;

constexpr int kCells = 1000;
constexpr int kBackgroundUes = 1000;
constexpr int kTrackedPerCell = 4;
constexpr Nanos kWarmup{10'000'000};    ///< simulated in set-up, untimed
constexpr Nanos kHorizon{510'000'000};  ///< one pass: warm-up plus 1000 steps
constexpr Nanos kSlice{500'000};        ///< one step: one slot
constexpr int kSlicesPerBlock = 4;

StackConfig city_config(std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_free(seed);
  cfg.num_cells = kCells;
  cfg.num_ues = 1;  // one tracked full-stack UE per cell
  cfg.intercell_load_coupling = 0.005;
  cfg.population.background_ues = kBackgroundUes;
  cfg.population.mean_interarrival = Nanos{10'000'000};
  cfg.population.grants_per_slot = 64;  // ~78% offered load
  cfg.population.loss = 0.05;
  return cfg;
}

/// Tracked uplink arrivals: kTrackedPerCell per cell, uniform over the pass
/// early enough that each can resolve against the deadline before it ends.
struct Inputs {
  std::vector<std::pair<int, Nanos>> uplinks;  ///< (cell, time)
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed ^ 0xc17eULL);
  const auto span = static_cast<std::uint64_t>((kHorizon - Nanos{5'000'000}).count());
  for (int c = 0; c < kCells; ++c) {
    for (int p = 0; p < kTrackedPerCell; ++p) {
      in.uplinks.emplace_back(c, Nanos{static_cast<std::int64_t>(rng.uniform_int(span))});
    }
  }
  return in;
}

struct PassResult {
  SimOutcome outcome;
  std::uint64_t events = 0;
  ShardedEngine::PopulationTotals pop;
  std::uint64_t slots = 0;
};

/// The population identity: every offered background packet is delivered,
/// dropped (HARQ budget or full ring) or still queued.
bool population_balances(const ShardedEngine::PopulationTotals& p) {
  return p.offered == p.delivered + p.harq_drops + p.queue_drops + p.queued;
}

class City final : public Workload {
 public:
  City(const Options& opt, Spans& spans)
      : opt_(opt), in_(make_inputs(opt.seed)), spans_(spans), cfg_(city_config(opt.seed)) {}

  double setup() override {
    eng_.reset();  // free the previous pass before building the next
    const auto t0 = Clock::now();
    eng_ = std::make_unique<ShardedEngine>(cfg_, ShardedOptions{1});
    for (const auto& [cell, at] : in_.uplinks) {
      const auto a = Clock::now();
      eng_->send_uplink_at(at, cell, 0);
      if (spans_.on()) {
        const auto b = Clock::now();
        spans_.add("sim.send_uplink_at", cell, a, b);
        inject_ns_ += seconds_between(a, b) * 1e9;
        ++injects_;
      }
    }
    eng_->run_until(kWarmup);
    now_ = kWarmup;
    return seconds_between(t0, Clock::now());
  }

  void run_pass(Timer& timer) override {
    const std::uint64_t per_slice = ops_per_slice();
    while (now_ < kHorizon) {
      timer.begin_block();
      std::uint64_t ops = 0;
      for (int s = 0; s < kSlicesPerBlock && now_ < kHorizon; ++s) {
        const auto a = Clock::now();
        eng_->run_until(now_ + kSlice);
        const auto b = Clock::now();
        timer.add_step(a, b);
        spans_.add("sim.run_until", static_cast<std::int32_t>(now_.count() / kSlice.count()), a,
                   b);
        now_ += kSlice;
        ops += per_slice;
      }
      timer.end_block(ops);
    }
  }

  PassOutcome finish_pass(Report& r, std::uint64_t pass_ops) override {
    last_ = result();
    if (!population_balances(last_.pop)) r.fail("city_1m: population identity", pass_ops);
    return {last_.outcome, last_.events};
  }

  void report_layers(const Phase& /*ph*/, Report& r) override {
    // The population tick, timed directly on a population built from the
    // workload's configuration.
    UePopulation pop(cfg_.population, eng_->window(), opt_.seed);
    constexpr std::uint64_t kTicks = 20'000;
    for (std::uint64_t s = 0; s < 200; ++s) pop.tick(s);  // reach steady backlog
    const auto t0 = Clock::now();
    for (std::uint64_t s = 200; s < 200 + kTicks; ++s) pop.tick(s);
    const auto t1 = Clock::now();
    spans_.set_on(true);
    spans_.add("mac.UePopulation::tick", 0, t0, t1);
    const double tick_ns =
        seconds_between(t0, t1) * 1e9 / static_cast<double>(kTicks * pop.size());

    const PassResult& res = last_;
    const double ops = static_cast<double>(res.slots) * kCells * (kBackgroundUes + 1);
    r.add("sim.events_per_op", static_cast<double>(res.events) / ops, "count");
    r.add("sim.inject_ns", injects_ == 0 ? 0.0 : inject_ns_ / static_cast<double>(injects_),
          "ns");
    r.add("mac.pop_tick_ns_per_ue_slot", tick_ns, "ns");
    r.add("mac.pop_grant_util",
          static_cast<double>(res.pop.grants_used) /
              (static_cast<double>(cfg_.population.grants_per_slot) * kCells *
               static_cast<double>(res.slots)),
          "fraction");
    r.add("mac.pop_queue_drop_frac",
          res.pop.offered == 0 ? 0.0
                               : static_cast<double>(res.pop.queue_drops) /
                                     static_cast<double>(res.pop.offered),
          "fraction");
  }

 private:
  [[nodiscard]] std::uint64_t ops_per_slice() const {
    const std::int64_t slots = kSlice.count() / eng_->window().count();
    return static_cast<std::uint64_t>(kCells) * (kBackgroundUes + 1) *
           static_cast<std::uint64_t>(slots);
  }

  [[nodiscard]] PassResult result() const {
    PassResult r;
    std::vector<std::int64_t> lat;
    std::uint64_t offered = 0;
    for (int c = 0; c < eng_->num_cells(); ++c) {
      for (const PacketRecord& rec : eng_->cell(c).system().records()) {
        ++offered;
        if (rec.ok) lat.push_back(rec.latency().count());
      }
    }
    r.outcome = sim_outcome(std::move(lat), offered, opt_.deadline);
    r.events = eng_->events_fired();
    r.pop = eng_->population_totals();
    r.slots = static_cast<std::uint64_t>(kHorizon.count() / eng_->window().count());
    return r;
  }

  const Options& opt_;
  const Inputs in_;
  Spans& spans_;
  StackConfig cfg_;
  std::unique_ptr<ShardedEngine> eng_;
  Nanos now_{};
  double inject_ns_ = 0.0;
  std::uint64_t injects_ = 0;
  PassResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_city(const Options& opt, Spans& spans) {
  return std::make_unique<City>(opt, spans);
}

}  // namespace pb
