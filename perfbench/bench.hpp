#pragma once
// Shared harness of the repository benchmark: options, the timed phase
// (blocks of ops and finer steps, repeated pass after pass), the host-noise
// sentinel, in-memory spans for the traced run, and the workload interface.
//
// Every workload follows the same shape, driven by run_workload():
//   1. generate its inputs from --seed (not timed, not set-up);
//   2. per pass: set up (construction, injection of the pre-generated
//      inputs, warm-up; timed as setup_s), run the whole input set in timed
//      blocks, then self-check; every pass must reproduce the first pass's
//      simulated outcome bit for bit;
//   3. stop after the pass in which --seconds of blocks have been measured
//      (at least kMinPasses passes), and report.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "trace/trace.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
using u5g::Nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Nanos deadline{1'000'000};  ///< one-way deadline behind sim_miss_frac
  std::string trace_out;      ///< Chrome trace written by the traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts ops whose self-check failed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diag;  ///< diagnostics, printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_diag(std::string name, double value, std::string unit) {
    diag.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed self-check covering `ops` ops.
  void fail(const std::string& what, std::uint64_t ops = 1);
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double cpu_seconds();
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Heap allocations made by this process so far (global operator new).
[[nodiscard]] std::uint64_t allocations();

/// The timed phase. A pass is bracketed by begin_pass()/end_pass(); inside
/// it, workloads bracket each block of ops with begin_block()/end_block(ops)
/// and time finer steps with add_step(). Work outside blocks (set-up,
/// drains, checks) is not measured.
///
/// Every pass runs the same inputs, so block i and step j of one pass do
/// the same work as block i and step j of any other. For each block and
/// step index the timer keeps the fastest repetition across passes: other
/// tenants of a shared host slow the same code by 30-60% for seconds at a
/// time, and the fastest repetition of each index is the one they left
/// alone. Every index counts, whatever its content, so heavy blocks and
/// slow steps weigh in as often as the inputs hold them.
///
/// The step tail takes its shape from a cost profile rather than from the
/// fastest repetitions: a step's relative cost is its time over its pass's
/// median step, and the profile holds, per step index, the median of that
/// ratio over the profiled passes. A step that is slow in every pass (a
/// cache miss, a barrier slot, a periodic stall) stands out in the profile
/// whatever the host did; contention, which lifts a stretch of neighbouring
/// steps in one pass and other stretches in the next, does not.
class Timer {
 public:
  explicit Timer(double seconds) : seconds_(seconds) {}

  void begin_pass();
  /// Throws std::logic_error when the pass's blocks or steps differ in
  /// number from the first pass's.
  void end_pass();
  void begin_block();
  /// Throws std::logic_error when `ops` differs from the same block's ops
  /// in the first pass.
  void end_block(std::uint64_t ops);
  void add_step(Clock::time_point t0, Clock::time_point t1);

  /// True once --seconds of blocks are measured over at least kMinPasses.
  [[nodiscard]] bool done() const { return measured_s_ >= seconds_ && passes_ >= kMinPasses; }

  /// Ops over every pass.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// Block wall time over every pass.
  [[nodiscard]] double measured_seconds() const { return measured_s_; }
  /// Ops of one pass over the sum of the fastest repetition of each block.
  [[nodiscard]] double ops_per_s() const;
  /// Median rate of the sentinel loop run between blocks, in M iterations/s.
  [[nodiscard]] double sentinel_mips() const { return median(sentinel_mips_); }

  /// Adds ops_per_s, cpu_us_per_op (the fastest repetition's process CPU
  /// of each block, summed, per op), step_p50_us (the median over the
  /// fastest repetition of every step index) and step_p99_us (step_p50_us
  /// scaled by the cost profile's p99/p50). Throws std::logic_error when a
  /// pass holds fewer than kMinSteps steps, too few for 10 to lie beyond
  /// the p99.
  void report(Report& r) const;

 private:
  /// Repetitions each index needs before the fastest one is the host's
  /// quiet speed.
  static constexpr int kMinPasses = 10;
  static constexpr std::size_t kMinSteps = 1000;
  /// Passes whose raw step times enter the cost profile (the first ones).
  static constexpr std::size_t kProfilePasses = 16;
  struct Block {
    std::uint64_t ops;
    double wall_s;  ///< fastest repetition
    double cpu_s;   ///< least process CPU over the repetitions
  };
  void run_sentinel();

  double seconds_;
  Clock::time_point block_t0_{};
  double block_cpu0_ = 0.0;
  double measured_s_ = 0.0;
  double since_sentinel_s_ = 0.0;
  std::uint64_t ops_ = 0;
  int passes_ = 0;
  std::size_t block_ = 0;  ///< index of the next block in this pass
  std::size_t step_ = 0;   ///< index of the next step in this pass
  std::vector<Block> blocks_;      ///< by block index
  std::vector<double> steps_us_;   ///< fastest repetition, by step index
  std::vector<std::vector<float>> profiled_us_;  ///< raw step times of the profiled passes
  std::vector<double> sentinel_mips_;
};

/// In-memory span log for the traced run: spans stay in memory (capped) and
/// are written as a Chrome trace at exit. Names must be string literals.
/// A traced run alternates untraced and traced passes, switching recording
/// on and off, so both halves see the same host conditions.
class Spans {
 public:
  Spans() : t0_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void add(const char* name, std::int32_t id, Clock::time_point a, Clock::time_point b) {
    if (!on_ || spans_.size() >= kCap) return;
    spans_.push_back(u5g::TraceSpan{name, u5g::LatencyCategory::Processing, id, rel(a), rel(b)});
  }
  /// Writes the spans to `path`; a no-op when `path` is empty.
  bool write(const std::string& path, const char* process) const;

 private:
  static constexpr std::size_t kCap = 200'000;
  [[nodiscard]] Nanos rel(Clock::time_point t) const {
    return Nanos{std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count()};
  }
  bool on_ = false;
  Clock::time_point t0_;
  std::vector<u5g::TraceSpan> spans_;
};

/// Simulated-outcome summary of a set of offered packets (or queries):
/// p99 of the delivered latencies and the share that missed the deadline,
/// undelivered ones included.
struct SimOutcome {
  double p99_us = 0.0;
  double miss_frac = 0.0;
  bool operator==(const SimOutcome&) const = default;
};
/// `latencies_ns` holds one entry per delivered item; `offered` counts all.
[[nodiscard]] SimOutcome sim_outcome(std::vector<std::int64_t> latencies_ns,
                                     std::uint64_t offered, Nanos deadline);

/// What a pass must reproduce: its simulated outcome and a count that
/// fingerprints the run (events fired, or cache evictions; 0 where the
/// workload has neither).
struct PassOutcome {
  SimOutcome sim;
  std::uint64_t fingerprint = 0;
  bool operator==(const PassOutcome&) const = default;
};

/// The timed phase of a run, as run_workload() hands it to report_layers().
struct Phase {
  Timer timer;   ///< untraced passes
  Timer traced;  ///< traced passes (traced runs only)
  std::vector<double> setups;
  PassOutcome first;
  int passes = 0;
  double rss_mb = 0.0;  ///< peak resident set through the first pass
};

/// One workload. Its inputs are generated at construction; the harness
/// calls setup(), run_pass() and finish_pass() once per pass.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Construction, injection of the pre-generated inputs and warm-up, from
  /// scratch; returns its seconds.
  virtual double setup() = 0;
  /// The whole input set, in timed blocks.
  virtual void run_pass(Timer& timer) = 0;
  /// Untimed work after the pass (drains), its self-check (failures go to
  /// `r`, counting `pass_ops` where the whole pass is void) and its outcome.
  virtual PassOutcome finish_pass(Report& r, std::uint64_t pass_ops) = 0;
  /// The per-layer metrics of a traced run, beyond the harness's own.
  virtual void report_layers(const Phase& ph, Report& r) = 0;
};

/// Runs the timed phase and reports the metric set --trace selects.
void run_workload(const Options& opt, Workload& w, Spans& spans, Report& r);

// Workload factories.
std::unique_ptr<Workload> make_city(const Options& opt, Spans& spans);
std::unique_ptr<Workload> make_cell(const Options& opt, Spans& spans);
std::unique_ptr<Workload> make_serve(const Options& opt, Spans& spans);
std::unique_ptr<Workload> make_datapath(const Options& opt, Spans& spans);

}  // namespace pb
