// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--deadline-us D] [--trace-out FILE]
//
// Workloads: city_1m, cell_nru, serve_zipf, datapath_imix (see README.md).
// Prints diagnostics as "# diag {...}" and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 on a usage
// error or when a workload throws; a failed self-check is reported through
// "correct"/"failed", not the exit code.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "trace/chrome_trace.hpp"

// Counting global allocator behind common.allocs_per_pkt.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pb {

void Report::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  std::fprintf(stderr, "perfbench: self-check failed: %s\n", what.c_str());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

void Timer::begin_pass() {
  block_ = 0;
  step_ = 0;
  if (profiled_us_.size() < kProfilePasses) {
    profiled_us_.emplace_back();
    profiled_us_.back().reserve(steps_us_.size());
  }
}

void Timer::end_pass() {
  if (block_ != blocks_.size() || step_ != steps_us_.size()) {
    throw std::logic_error{"a pass has fewer blocks or steps than the first"};
  }
  ++passes_;
}

void Timer::begin_block() {
  block_cpu0_ = cpu_seconds();
  block_t0_ = Clock::now();
}

void Timer::end_block(std::uint64_t ops) {
  const double wall = seconds_between(block_t0_, Clock::now());
  const double cpu = cpu_seconds() - block_cpu0_;
  measured_s_ += wall;
  ops_ += ops;
  if (block_ == blocks_.size()) {
    if (passes_ > 0) throw std::logic_error{"a pass has more blocks than the first"};
    blocks_.push_back({ops, wall, cpu});
  } else {
    Block& b = blocks_[block_];
    if (b.ops != ops) throw std::logic_error{"a block's ops differ from the first pass"};
    b.wall_s = std::min(b.wall_s, wall);
    b.cpu_s = std::min(b.cpu_s, cpu);
  }
  ++block_;
  since_sentinel_s_ += wall;
  if (since_sentinel_s_ >= 0.25) {
    since_sentinel_s_ = 0.0;
    run_sentinel();
  }
}

void Timer::add_step(Clock::time_point t0, Clock::time_point t1) {
  const double us = seconds_between(t0, t1) * 1e6;
  if (static_cast<std::size_t>(passes_) < kProfilePasses) {
    profiled_us_.back().push_back(static_cast<float>(us));
  }
  if (step_ == steps_us_.size()) {
    if (passes_ > 0) throw std::logic_error{"a pass has more steps than the first"};
    steps_us_.push_back(us);
  } else {
    steps_us_[step_] = std::min(steps_us_[step_], us);
  }
  ++step_;
}

// A fixed integer loop owned by the benchmark. It is a dependent multiply
// chain, so its rate follows the core's clock but not the cache and port
// contention from other tenants; a slow run with a normal sentinel rate
// points at contention rather than a slower clock.
void Timer::run_sentinel() {
  constexpr std::uint64_t kIters = 1 << 18;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x += i;
  }
  const double dt = seconds_between(t0, Clock::now());
  static volatile std::uint64_t sink = 0;
  sink = sink + x;  // keeps the loop alive
  sentinel_mips_.push_back(static_cast<double>(kIters) / dt / 1e6);
}

double Timer::ops_per_s() const {
  double ops = 0.0, wall = 0.0;
  for (const Block& b : blocks_) {
    ops += static_cast<double>(b.ops);
    wall += b.wall_s;
  }
  return ops / wall;
}

void Timer::report(Report& r) const {
  if (steps_us_.size() < kMinSteps) {
    throw std::logic_error{"fewer than 1000 steps per pass: no p99 with 10 steps beyond it"};
  }
  double ops = 0.0, cpu = 0.0;
  for (const Block& b : blocks_) {
    ops += static_cast<double>(b.ops);
    cpu += b.cpu_s;
  }
  // The cost profile: per step index, the median over the profiled passes
  // of the step's time over its pass's median step.
  std::vector<double> pass_median;
  for (const std::vector<float>& row : profiled_us_) {
    pass_median.push_back(quantile(std::vector<double>(row.begin(), row.end()), 0.5));
  }
  std::vector<double> profile(steps_us_.size());
  std::vector<double> ratios(profiled_us_.size());
  for (std::size_t j = 0; j < profile.size(); ++j) {
    for (std::size_t p = 0; p < profiled_us_.size(); ++p) {
      ratios[p] = profiled_us_[p][j] / pass_median[p];
    }
    profile[j] = median(ratios);
  }
  const double p50 = quantile(steps_us_, 0.50);
  r.attempted += ops_;
  r.add("ops_per_s", ops_per_s(), "ops/s");
  r.add("cpu_us_per_op", cpu * 1e6 / ops, "us");
  r.add("step_p50_us", p50, "us");
  r.add("step_p99_us", p50 * quantile(profile, 0.99) / quantile(profile, 0.50), "us");
  r.add_diag("passes", passes_, "count");
  r.add_diag("blocks_per_pass", static_cast<double>(blocks_.size()), "count");
  r.add_diag("steps_per_pass", static_cast<double>(steps_us_.size()), "count");
  r.add_diag("step_p99_fastest_us", quantile(steps_us_, 0.99), "us");
  r.add_diag("ops_per_pass", ops, "ops");
  r.add_diag("measured_s", measured_s_, "s");
  r.add_diag("ops_per_s_all_passes", static_cast<double>(ops_) / measured_s_, "ops/s");
  r.add_diag("sentinel_mips", sentinel_mips(), "Mops/s");
}

bool Spans::write(const std::string& path, const char* process) const {
  if (path.empty()) return true;
  return u5g::write_chrome_trace(path, spans_, process);
}

SimOutcome sim_outcome(std::vector<std::int64_t> latencies_ns, std::uint64_t offered,
                       Nanos deadline) {
  SimOutcome o;
  if (offered == 0) return o;
  std::uint64_t within = 0;
  std::vector<double> us;
  us.reserve(latencies_ns.size());
  for (const std::int64_t ns : latencies_ns) {
    if (ns <= deadline.count()) ++within;
    us.push_back(static_cast<double>(ns) / 1e3);
  }
  o.p99_us = quantile(std::move(us), 0.99);
  o.miss_frac = static_cast<double>(offered - within) / static_cast<double>(offered);
  return o;
}

namespace {

/// Runs passes until --seconds of blocks are measured. A traced run
/// alternates untraced and traced passes, half of --seconds each.
Phase run_phase(const Options& opt, Workload& w, Spans& spans, Report& r) {
  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase ph{Timer(seconds), Timer(seconds), {}, {}, 0};
  for (;;) {
    spans.set_on(opt.trace && ph.passes % 2 == 1);
    Timer& timer = spans.on() ? ph.traced : ph.timer;
    ph.setups.push_back(w.setup());
    const std::uint64_t ops_before = timer.ops();
    timer.begin_pass();
    w.run_pass(timer);
    timer.end_pass();
    const std::uint64_t pass_ops = timer.ops() - ops_before;
    const PassOutcome o = w.finish_pass(r, pass_ops);
    if (ph.passes == 0) {
      ph.first = o;
      ph.rss_mb = peak_rss_mb();
    } else if (!(o == ph.first)) {
      r.fail(opt.workload + ": a repeated pass diverged from the first", pass_ops);
    }
    ++ph.passes;
    if (ph.timer.done() && (!opt.trace || ph.traced.done())) break;
  }
  spans.set_on(false);
  return ph;
}

}  // namespace

void run_workload(const Options& opt, Workload& w, Spans& spans, Report& r) {
  const Phase ph = run_phase(opt, w, spans, r);
  if (!opt.trace) {
    ph.timer.report(r);
    r.add("setup_s", median(ph.setups), "s");
    r.add("peak_rss_mb", ph.rss_mb, "MB");
    r.add("sim_p99_us", ph.first.sim.p99_us, "us");
    r.add("sim_miss_frac", ph.first.sim.miss_frac, "fraction");
    return;
  }
  r.attempted += ph.timer.ops() + ph.traced.ops();
  r.add("trace.overhead_frac", 1.0 - ph.traced.ops_per_s() / ph.timer.ops_per_s(), "fraction");
  r.add("host.sentinel_mips", ph.timer.sentinel_mips(), "Mops/s");
  w.report_layers(ph, r);
  if (!spans.write(opt.trace_out, ("perfbench " + opt.workload).c_str())) {
    throw std::runtime_error{"cannot write " + opt.trace_out};
  }
}

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--deadline-us D] [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (a == "--deadline-us") {
      o.deadline = Nanos{static_cast<std::int64_t>(std::llround(std::atof(v) * 1e3))};
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.deadline <= Nanos::zero()) usage("--deadline-us must be positive");
  return o;
}

// The metric sets BENCHMARK.json declares, in its order. A traced run
// reports every per-layer metric; a layer the workload does not drive
// reads 0.
const std::vector<Metric> kEndToEnd = {
    {"ops_per_s", 0, "ops/s"},     {"cpu_us_per_op", 0, "us"},    {"peak_rss_mb", 0, "MB"},
    {"setup_s", 0, "s"},           {"step_p50_us", 0, "us"},      {"step_p99_us", 0, "us"},
    {"sim_p99_us", 0, "us"},       {"sim_miss_frac", 0, "fraction"},
};
const std::vector<Metric> kPerLayer = {
    {"trace.overhead_frac", 0, "fraction"},
    {"host.sentinel_mips", 0, "Mops/s"},
    {"sim.events_per_op", 0, "count"},
    {"sim.events_per_batch", 0, "count"},
    {"sim.inject_ns", 0, "ns"},
    {"core.inject_ns", 0, "ns"},
    {"mac.pop_tick_ns_per_ue_slot", 0, "ns"},
    {"mac.pop_grant_util", 0, "fraction"},
    {"mac.pop_queue_drop_frac", 0, "fraction"},
    {"phy.lbt_defer_frac", 0, "fraction"},
    {"phy.lbt_mean_defer_us", 0, "us"},
    {"phy.lbt_collision_frac", 0, "fraction"},
    {"mac.harq_drop_frac", 0, "fraction"},
    {"pdcp.discard_frac", 0, "fraction"},
    {"tdd.upgraded_slot_frac", 0, "fraction"},
    {"mac.punctured_retx", 0, "count"},
    {"serve.hit_rate", 0, "fraction"},
    {"serve.evictions", 0, "count"},
    {"serve.hit_ns", 0, "ns"},
    {"serve.miss_ns", 0, "ns"},
    {"core.worst_case_ns", 0, "ns"},
    {"sdap.ns_per_pkt", 0, "ns"},
    {"pdcp.protect_ns_per_pkt", 0, "ns"},
    {"pdcp.verify_ns_per_pkt", 0, "ns"},
    {"rlc.tx_ns_per_pkt", 0, "ns"},
    {"rlc.rx_ns_per_pkt", 0, "ns"},
    {"mac.pdu_build_ns_per_pkt", 0, "ns"},
    {"mac.pdu_parse_ns_per_pkt", 0, "ns"},
    {"common.allocs_per_pkt", 0, "count"},
    {"datapath.layer_closure", 0, "ratio"},
};

/// The declared set with the workload's values filled in. A workload that
/// reports a name outside the set, or (untraced) misses one, is a bug.
std::vector<Metric> declared(const Report& r, bool traced) {
  std::vector<Metric> out = traced ? kPerLayer : kEndToEnd;
  std::size_t found = 0;
  for (Metric& m : out) {
    for (const Metric& got : r.metrics) {
      if (got.name != m.name) continue;
      if (got.unit != m.unit) throw std::logic_error{"unit mismatch for " + m.name};
      m.value = got.value;
      ++found;
    }
  }
  if (found != r.metrics.size()) throw std::logic_error{"undeclared or duplicate metric"};
  if (!traced && found != out.size()) throw std::logic_error{"missing end-to-end metric"};
  return out;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  }
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const Options opt = parse(argc, argv);
  Report r;
  try {
    Spans spans;
    std::unique_ptr<Workload> w;
    if (opt.workload == "city_1m") {
      w = make_city(opt, spans);
    } else if (opt.workload == "cell_nru") {
      w = make_cell(opt, spans);
    } else if (opt.workload == "serve_zipf") {
      w = make_serve(opt, spans);
    } else if (opt.workload == "datapath_imix") {
      w = make_datapath(opt, spans);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    run_workload(opt, *w, spans, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no ops\n", opt.workload.c_str());
    return 1;
  }
  std::vector<Metric> metrics;
  try {
    metrics = declared(r, opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("# diag {");
  print_metrics(r.diag);
  std::printf("}\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(metrics);
  std::printf("}}\n");
  return 0;
}
