// Microbenchmarks of the library's own hot paths (google-benchmark): the
// event kernel, the protocol entities, the opportunity queries, and the
// analytic engine. These guard the simulator's performance — a full Fig 6
// run schedules hundreds of thousands of events.
//
// `bench_micro --json out.json` emits the machine-readable google-benchmark
// JSON (shorthand for --benchmark_out=out.json --benchmark_out_format=json)
// so the perf trajectory (BENCH_*.json) can track kernel ops/sec and
// end-to-end bench wall-clock across commits.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/e2e_system.hpp"
#include "core/feasibility.hpp"
#include "core/latency_model.hpp"
#include "mac/ue_population.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "rlc/rlc_entity.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "tdd/common_config.hpp"
#include "tdd/opportunity.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

void BM_SimulatorScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(Nanos{i * 100}, [&fired] { ++fired; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleFire);

// The bench-suite mix: schedule bursts, cancel a fraction (HARQ timers and
// periodic re-arms behave like this), fire the rest. Items = all three ops.
void BM_SimulatorScheduleFireCancelMix(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    int fired = 0;
    int cancelled = 0;
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule_at(Nanos{static_cast<std::int64_t>(rng.uniform_int(100'000))},
                                        [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {  // tombstone a third
      cancelled += sim.cancel(handles[i]) ? 1 : 0;
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(cancelled);
  }
  state.SetItemsProcessed(state.iterations() * (1000 + 1000 / 3));
}
BENCHMARK(BM_SimulatorScheduleFireCancelMix);

// Steady-state self-rescheduling chain (the pattern of E2eSystem's per-slot
// dynamic-TDD tick): the queue stays tiny, so this isolates per-event
// overhead from heap growth.
void BM_SimulatorPeriodicChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    long ticks = 0;
    struct Chain {
      Simulator& sim;
      long& ticks;
      void operator()() const {
        ++ticks;
        if (ticks % 10'000 != 0) sim.schedule_after(Nanos{100}, Chain{sim, ticks});
      }
    };
    sim.schedule_at(Nanos::zero(), Chain{sim, ticks});
    sim.run_until();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorPeriodicChain);

// cell_nru's shape: ~80k arrivals injected up front in time order over 20 s
// of simulated time, then a near-term chain (one tick per 0.5 ms slot) fired
// through them, so every tick pays for a deep queue. Items = events fired.
void BM_SimulatorDeepBacklog(benchmark::State& state) {
  constexpr int kBacklog = 80'000;
  constexpr std::int64_t kSpan = 20'000'000'000;  // 20 s
  constexpr std::int64_t kTick = 500'000;         // 0.5 ms
  long fired = 0;
  for (auto _ : state) {
    Simulator sim;
    long ticks = 0;
    for (int i = 0; i < kBacklog; ++i) {
      sim.schedule_at(Nanos{kSpan / kBacklog * i}, [&fired] { ++fired; });
    }
    struct Chain {
      Simulator& sim;
      long& ticks;
      void operator()() const {
        ++ticks;
        if (sim.now() < Nanos{kSpan}) sim.schedule_after(Nanos{kTick}, Chain{sim, ticks});
      }
    };
    sim.schedule_at(Nanos::zero(), Chain{sim, ticks});
    sim.run_until();
    fired += ticks;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_SimulatorDeepBacklog);

// End-to-end wall-clock proxy: one small testbed Fig-6-style run. Tracks the
// full-stack cost per packet, the number the parallel runner multiplies.
void BM_E2eTestbedRun(benchmark::State& state) {
  const int packets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    E2eSystem sys(StackConfig::testbed_grant_free(42));
    Rng rng(42 ^ 0xF16);
    const Nanos period = 2_ms;
    for (int i = 0; i < packets; ++i) {
      sys.send_uplink_at(period * (2 * i) +
                         Nanos{static_cast<std::int64_t>(
                             rng.uniform() * static_cast<double>(period.count()))});
    }
    sys.run_until(period * (2 * packets + 20));
    benchmark::DoNotOptimize(sys.records().size());
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_E2eTestbedRun)->Arg(50);

// Fan-out overhead of the Monte-Carlo runner itself: trivial replications,
// so the measured time is crew setup + dispatch + merge bookkeeping.
void BM_RunnerFanOut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = run_replications(
        n, 1, [](int i, std::uint64_t seed) { return static_cast<double>(seed >> 32) + i; },
        {0});
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RunnerFanOut)->Arg(16);

void BM_PdcpProtectVerify(benchmark::State& state) {
  PdcpTx tx;
  PdcpRx rx;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ByteBuffer b(n, 0x42);
    tx.protect(b);
    int delivered = 0;
    rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; });
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PdcpProtectVerify)->Arg(64)->Arg(1500);

void BM_RlcSegmentReassemble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    RlcTx tx(RlcMode::UM);
    RlcRx rx(RlcMode::UM);
    tx.enqueue(ByteBuffer(n, 0x7), Nanos::zero());
    int delivered = 0;
    while (auto pdu = tx.pull(128)) {
      rx.receive(std::move(pdu->pdu), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; });
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RlcSegmentReassemble)->Arg(64)->Arg(4096);

void BM_NextUlTx(benchmark::State& state) {
  const TddCommonConfig cfg = TddCommonConfig::dm(kMu2);
  Nanos t{0};
  for (auto _ : state) {
    const auto w = next_ul_tx(cfg, t, 2);
    benchmark::DoNotOptimize(w);
    t = w ? w->start + Nanos{1} : Nanos{0};
    if (t > Nanos{1'000'000'000}) t = Nanos{0};
  }
}
BENCHMARK(BM_NextUlTx);

void BM_NextDlControl(benchmark::State& state) {
  const TddCommonConfig cfg = TddCommonConfig::dm(kMu2);
  Nanos t{0};
  for (auto _ : state) {
    const auto w = next_dl_control(cfg, t);
    benchmark::DoNotOptimize(w);
    t = w ? w->start + Nanos{1} : Nanos{0};
    if (t > Nanos{1'000'000'000}) t = Nanos{0};
  }
}
BENCHMARK(BM_NextDlControl);

void BM_NextDlData(benchmark::State& state) {
  const TddCommonConfig cfg = TddCommonConfig::dm(kMu2);
  Nanos t{0};
  for (auto _ : state) {
    const auto w = next_dl_data(cfg, t);
    benchmark::DoNotOptimize(w);
    t = w ? w->start + Nanos{1} : Nanos{0};
    if (t > Nanos{1'000'000'000}) t = Nanos{0};
  }
}
BENCHMARK(BM_NextDlData);

/// One Table 1 cell per run: Arg 0 indexes table1_configs() (DU, DM, MU,
/// MiniSlot, FDD), Arg 1 the access mode (grant-based UL, grant-free UL,
/// DL), Arg 2 the model: 0 is the idealised (all-zero) model, whose
/// completion steps all sit on symbol boundaries; 1 is a serve_zipf-like
/// model (an odd-ns sender time, as its jitter gives), whose steps fall
/// inside symbols. BM_WorstCaseSweep/1/0/0 is DM grant-based UL, idealised.
void BM_WorstCaseSweep(benchmark::State& state) {
  const auto cfgs = table1_configs();
  const DuplexConfig& cfg = *cfgs[static_cast<std::size_t>(state.range(0))];
  const auto mode = static_cast<AccessMode>(state.range(1));
  LatencyModelParams p;
  if (state.range(2) == 1) {
    p.sender_processing = Nanos{140'317};
    p.receiver_processing = Nanos{60'000};
    p.radio_tx = Nanos{30'000};
    p.radio_rx = Nanos{20'000};
  }
  for (auto _ : state) {
    const auto wc = analyze_worst_case(cfg, mode, p);
    benchmark::DoNotOptimize(wc);
  }
  state.SetLabel(cfg.name() + " " + to_string(mode) + (state.range(2) == 1 ? " serve" : " zero"));
}
BENCHMARK(BM_WorstCaseSweep)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}, {0, 1}});

/// One slot of `cells` city_1m background populations (1000 UEs, 10 ms
/// mean spacing, 64 grants, 5% loss), ticked slot-major as ShardedEngine
/// does at one worker: every cell's tick for slot k, then slot k + 1.
/// /1 keeps one population hot in cache; /1000 is the city's ~35 MB of rows
/// swept every slot. Items are UE-slots, so the two read as ns per UE-slot.
void BM_PopulationTick(benchmark::State& state) {
  constexpr Nanos kSlot{500'000};
  PopulationConfig cfg;
  cfg.background_ues = 1000;
  cfg.mean_interarrival = Nanos{10'000'000};
  cfg.grants_per_slot = 64;
  cfg.loss = 0.05;
  const auto cells = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<UePopulation>> pops;
  pops.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    pops.push_back(std::make_unique<UePopulation>(cfg, kSlot, 1000 + c));
  }
  std::uint64_t slot = 0;
  for (; slot < 20; ++slot) {  // reach the steady backlog before timing
    for (auto& p : pops) p->tick(slot);
  }
  for (auto _ : state) {
    for (auto& p : pops) p->tick(slot);
    ++slot;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(pops.front()->queued_packets());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells) *
                          cfg.background_ues);
}
BENCHMARK(BM_PopulationTick)->ArgName("cells")->Arg(1)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  // Expand `--json FILE` into google-benchmark's out flags before Initialize
  // sees the command line.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
