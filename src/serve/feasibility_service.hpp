#pragma once
// The feasibility-query service: Table 1's verdict as a long-running,
// cache-backed query engine.
//
// Layering (DESIGN §11):
//   1. **Analytic fast path** — `analyze_worst_case` over the duplex
//      pattern, memoized in an LRU keyed on the pattern's *value identity*
//      (direction map + granularity, never the pointer), the same way the
//      TBS table memoizes `prbs_needed`. The key's words sit inline in the
//      `CanonicalWords`, and the LRU is a flat slab with an open-addressed
//      index (common/lru.hpp), so a warm query is a lock, a hash, a probe
//      and a relink, with no heap traffic; a miss that evicts reuses the
//      LRU entry's node in place. Answers are bit-identical to offline
//      `analyze_worst_case` because they are produced by the same code, once.
//   2. **Sim-tail fallback** — stochastic quantiles the closed form cannot
//      bound come from fixed-seed E2eSystem replications fanned over the
//      PR-1 runner, merged in replication order (bitwise thread-count
//      independent), cached in an LRU keyed on
//      `StackConfig::append_canonical_words` + mode + replication plan. The
//      cache stores the merged *sample set*, so one sim run answers any
//      (deadline, quantile) follow-up for the same stack.
//   3. **Batch API** — whole sweeps submit as one `QueryBatch`, answered
//      one query after another on the calling thread, results in request
//      order. A batch's cold sim tails fan their replications out as a
//      single query's do; splitting the batch itself over workers measured
//      slower (EXPERIMENTS.md, "Batched queries").
//
// Thread safety: all public methods may be called concurrently. The caches
// sit behind one mutex; compute runs outside the lock, so two racing misses
// on the same key at worst compute the identical answer twice.
//
// Determinism contract: answers are pure functions of the query value.
// Cache hits return the stored answer verbatim; evictions only ever cost a
// recomputation of the same pure function. tests/test_serve.cpp pins all of
// this (bit-identity vs offline, hit == miss, 1/2/8-thread tails, eviction
// invariance).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/hashing.hpp"
#include "common/lru.hpp"
#include "common/stats.hpp"
#include "serve/query.hpp"

namespace u5g {

class FeasibilityService {
 public:
  struct Options {
    std::size_t analytic_cache_capacity = 1 << 16;  ///< worst-case results
    std::size_t tail_cache_capacity = 512;          ///< merged sim sample sets
    /// Retained for source compatibility: batches run on the calling
    /// thread, so the service starts no worker of its own.
    int threads = 0;
    /// Replication fan-out for a query's sim tail (0 = hardware
    /// concurrency), in `query` and `query_batch` alike; the runner contract
    /// makes the answer bitwise-identical at any count.
    int sim_threads = 0;
  };

  struct Stats {
    std::uint64_t queries = 0;          ///< total queries answered
    std::uint64_t analytic_hits = 0;
    std::uint64_t analytic_misses = 0;
    std::uint64_t tail_hits = 0;
    std::uint64_t tail_misses = 0;
    std::uint64_t evictions = 0;        ///< both caches
    [[nodiscard]] double analytic_hit_rate() const {
      const std::uint64_t t = analytic_hits + analytic_misses;
      return t == 0 ? 0.0 : static_cast<double>(analytic_hits) / static_cast<double>(t);
    }
  };

  FeasibilityService() : FeasibilityService(Options{}) {}
  explicit FeasibilityService(Options opt);
  FeasibilityService(const FeasibilityService&) = delete;
  FeasibilityService& operator=(const FeasibilityService&) = delete;

  // -- Query APIs ------------------------------------------------------------

  /// Answer one query synchronously. Sim tails fan their replications over
  /// `Options::sim_threads` workers.
  [[nodiscard]] FeasibilityVerdict query(const FeasibilityQuery& q);

  /// Answer a whole sweep, one `query` after another on the calling
  /// thread; verdicts return in request order (batch[i] -> result[i]).
  [[nodiscard]] std::vector<FeasibilityVerdict> query_batch(const QueryBatch& batch);

  // -- Compatibility surface for the offline wrappers ------------------------

  /// Memoized analytic worst case for one (pattern, mode, model) — the fast
  /// path without verdict assembly. Bit-identical to `analyze_worst_case`.
  [[nodiscard]] WorstCaseResult worst_case(const DuplexConfig& cfg, AccessMode mode,
                                           const LatencyModelParams& p = {},
                                           int grid_per_symbol = 4);

  [[nodiscard]] Stats stats() const;

  /// Process-wide instance behind the offline entry points
  /// (`build_table1`, `compute_budget`, `explore_design_space`). Lazy; starts
  /// threads only to fan out a sim tail's replications.
  static FeasibilityService& shared();

 private:
  /// Merged fixed-seed replication output — the tail cache value. Stored
  /// once per (stack, mode, plan); quantile/deadline are applied per query.
  struct TailSamples {
    SampleSet latency_us;     ///< delivered one-way latencies, merge order
    std::size_t offered = 0;  ///< replications x packets
  };

  [[nodiscard]] TailSamples run_tail(const SimTailSpec& spec, AccessMode mode);

  Options opt_;
  mutable std::mutex mu_;  ///< guards caches_, stats_
  LruCache<CanonicalWords, WorstCaseResult, CanonicalWordsHash> analytic_;
  LruCache<CanonicalWords, TailSamples, CanonicalWordsHash> tail_;
  std::uint64_t queries_ = 0;
};

}  // namespace u5g
