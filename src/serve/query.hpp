#pragma once
// Feasibility-query request/response types — the one public entry point for
// "can deadline D be met with pattern P / access mode M / bus B / jitter J?".
//
// The paper's core artifact is the Table 1 verdict: worst-case one-way
// latency of a stack configuration versus the URLLC deadline. Offline that
// verdict lived in three ad-hoc call patterns (bench_table1's table loop,
// design_explorer's design-space sweep, bench_budget's platform check); the
// serve layer replaces all three with one request/response surface that a
// planning tool can hit millions of times:
//
//   * the **analytic fast path** answers from latency_model's closed-form
//     worst-case search, memoized in an LRU keyed on the duplex pattern's
//     value identity — bit-identical to offline `evaluate_config`;
//   * the optional **sim tail** answers what the analytic model cannot
//     bound — stochastic latency quantiles under OS jitter, radio-bus
//     spikes, loss — from cached fixed-seed E2eSystem replications keyed on
//     `StackConfig::canonical_key()`.
//
// A query is a value; batches are vectors of values. Both entry points are
// synchronous: `query` answers one, `query_batch` answers a batch in
// request order — see serve/feasibility_service.hpp.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/latency_model.hpp"
#include "core/reliability.hpp"
#include "core/stack_config.hpp"
#include "tdd/duplex_config.hpp"

namespace u5g {

/// Fallback request: bound the stochastic tail by simulation. Fixed-seed
/// replications make the answer a pure function of the spec — cacheable and
/// bitwise-reproducible at any service/sim thread count.
struct SimTailSpec {
  /// Full stack for the replications. Its `duplex` is authoritative for the
  /// sim; `grant_free` is overridden to match the query's access mode.
  StackConfig config;
  int replications = 4;  ///< independent fixed-seed E2eSystem runs
  int packets = 128;     ///< packets per replication (one direction)
  /// Latency quantile that must meet the deadline (URLLC reads: 0.99999).
  double quantile = 0.999;
};

/// One feasibility question.
struct FeasibilityQuery {
  std::shared_ptr<const DuplexConfig> duplex;  ///< pattern P (required)
  AccessMode mode = AccessMode::GrantFreeUl;   ///< access mode M
  Nanos deadline = kUrllcOneWayDeadline;       ///< deadline D
  LatencyModelParams model{};                  ///< analytic knobs (tx symbols, proc, radio)
  int grid_per_symbol = 4;                     ///< worst-case arrival grid density
  std::optional<SimTailSpec> tail{};           ///< stochastic-tail fallback request

  /// Pure analytic query (the Table 1 cell).
  static FeasibilityQuery analytic(std::shared_ptr<const DuplexConfig> duplex, AccessMode mode,
                                   Nanos deadline = kUrllcOneWayDeadline,
                                   const LatencyModelParams& model = {}) {
    FeasibilityQuery q;
    q.duplex = std::move(duplex);
    q.mode = mode;
    q.deadline = deadline;
    q.model = model;
    return q;
  }

  /// Analytic + sim-tail query over a full stack configuration; the query's
  /// duplex handle is taken from the config.
  static FeasibilityQuery with_tail(StackConfig config, AccessMode mode,
                                    Nanos deadline = kUrllcOneWayDeadline,
                                    int replications = 4, int packets = 128,
                                    double quantile = 0.999) {
    FeasibilityQuery q;
    q.duplex = config.duplex;
    q.mode = mode;
    q.deadline = deadline;
    q.tail = SimTailSpec{std::move(config), replications, packets, quantile};
    return q;
  }
};

/// A whole sweep in one call (design_explorer submits its full design space
/// as one batch; answers come back in request order).
using QueryBatch = std::vector<FeasibilityQuery>;

/// Stochastic-tail portion of a verdict.
struct SimTailResult {
  double quantile = 0.0;            ///< the quantile that was evaluated
  double quantile_latency_us = 0.0; ///< latency at that quantile (µs)
  ReliabilityReport reliability;    ///< delivered-within-deadline figures
  bool meets_deadline = false;      ///< quantile latency <= deadline
};

/// The answer to one FeasibilityQuery.
struct FeasibilityVerdict {
  AccessMode mode{};
  Nanos deadline{};
  WorstCaseResult worst_case;        ///< analytic fast path (bit-identical to
                                     ///< offline analyze_worst_case)
  bool analytic_meets = false;       ///< worst_case.worst <= deadline
  std::optional<SimTailResult> tail; ///< present iff the query asked for it
  /// Overall verdict: the analytic bound holds and, when a tail was
  /// requested, the simulated quantile also meets the deadline.
  bool meets_deadline = false;
  // Diagnostics (not part of the answer's identity): where it came from.
  bool analytic_cache_hit = false;
  bool tail_cache_hit = false;
};

}  // namespace u5g
