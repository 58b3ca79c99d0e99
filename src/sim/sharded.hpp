#pragma once
// Conservative parallel discrete-event engine: N cells as independent shards.
//
// The paper models one gNB and one UE; ROADMAP's north star is a
// production-scale simulator. PR 1 parallelised *across* Monte-Carlo
// replications — this engine parallelises *within* one scenario by running
// `StackConfig::num_cells` complete cells (core/cell.hpp), each optionally
// carrying a lite-UE background population (mac/ue_population.hpp), so a
// city-scale run is a handful of tracked full stacks plus ~10^6 flat-row
// background UEs.
//
// Synchronisation model (conservative lookahead, adaptive windows):
//   * Cross-cell effects are slot-aligned: the load signal every cell
//     exposes (load_signal()) only changes when one of its events fires or
//     its population ticks, and is exchanged at barriers on the slot grid.
//   * run_until() sizes each window from *actual* upcoming activity: the
//     window ends at the first slot-grid barrier at or after the earliest
//     next_activity() across cells. Grid barriers before that instant are
//     provably no-ops — no event fired anywhere, so every load is unchanged
//     and re-exchanging it would re-apply identical values — and skipping
//     them is therefore bitwise-invisible. Cells whose next activity lies
//     beyond the window are not dispatched at all (their clocks catch up in
//     the final window). With `intercell_load_coupling == 0` the cells are
//     provably independent, the lookahead is infinite, and the whole span
//     runs as one window.
//   * Cross-shard channels: backhaul packets enter at the engine's UPF
//     ingress and are routed to the serving cell (send_downlink_at), and the
//     inter-cell load signal scales neighbours' gNB processing through
//     `intercell_load_coupling` × `gnb_load_factor_per_ue` at each barrier.
//
// Execution model: a persistent Crew (common/crew.hpp) of `threads`
// workers, the engine thread being worker 0. Each window the engine builds
// the dispatch list and makes one parallel_for over it: worker w advances
// the cells of the contiguous slice [n·w/W, n·(w+1)/W) in a plain loop. A
// 1-worker crew has no helper threads and runs the same code path.
//
// Determinism contract (matching sim/runner.hpp): cell i always receives
// `cell_seed(seed, i)`; shards share no mutable state inside a window
// (BufferPool free-lists are thread-local and migration-safe); all
// cross-shard exchange and every merge happens on the engine thread in
// fixed cell order. Which worker runs a cell affects wall-clock only,
// never state — merged results are bitwise-identical across worker thread
// counts for the same config and injections. A cell's exception propagates
// out of run_until() on the engine thread, first in cell order.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cell.hpp"
#include "trace/chrome_trace.hpp"

namespace u5g {

class Crew;

struct ShardedOptions {
  int threads = 0;  ///< worker count; 0 = hardware concurrency
};

class ShardedEngine {
 public:
  /// Builds `base.num_cells` shards from `base` (per-cell seeds from the
  /// SplitMix64 stream rooted at `base.seed`; cell 0 keeps the root seed).
  explicit ShardedEngine(const StackConfig& base, ShardedOptions opt = {});
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] int num_cells() const { return static_cast<int>(cells_.size()); }
  [[nodiscard]] int threads() const;
  /// The slot-grid pitch synchronisation barriers live on. Actual windows
  /// are adaptive multiples of this.
  [[nodiscard]] Nanos window() const { return slot_; }

  [[nodiscard]] Cell& cell(int i) { return *cells_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const Cell& cell(int i) const { return *cells_.at(static_cast<std::size_t>(i)); }

  // -- Traffic --------------------------------------------------------------
  // Injection is only legal at or after the synchronisation frontier (the
  // last completed barrier); anything earlier would violate the lookahead
  // guarantee already handed to the shards.

  /// Uplink packet at cell `cell`'s UE `ue` application layer at `at`.
  void send_uplink_at(Nanos at, int cell, int ue = 0);
  /// Downlink packet entering the (shared) UPF at `at`, routed over the
  /// backhaul cross-shard channel to serving cell `cell` for UE `ue`.
  void send_downlink_at(Nanos at, int cell, int ue = 0);

  /// Advance every shard to exactly `until`, one adaptive window at a time.
  void run_until(Nanos until);

  // -- Deterministic merged views (fixed cell order) ------------------------

  [[nodiscard]] SampleSet latency_samples_us(Direction dir) const;
  /// Tracked-stack metrics merged with every population's `population.*`
  /// counters and latency histogram.
  [[nodiscard]] MetricsRegistry merged_metrics() const;
  [[nodiscard]] std::uint64_t packets_started() const;
  [[nodiscard]] std::uint64_t packets_delivered() const;
  [[nodiscard]] std::uint64_t radio_deadline_misses() const;
  [[nodiscard]] std::uint64_t events_fired() const;
  /// Dynamic-TDD aggregates (all zero unless `dynamic_tdd.enabled`).
  [[nodiscard]] std::uint64_t punctured_retx() const;
  [[nodiscard]] std::uint64_t crosslink_ul_losses() const;
  [[nodiscard]] std::uint64_t dynamic_upgraded_slots() const;
  /// NR-U channel-access stats summed over cells in fixed order (all zero
  /// unless `lbt.enabled`).
  [[nodiscard]] LbtGate::Stats lbt_stats() const;

  /// Background-population aggregates summed over cells in fixed order.
  struct PopulationTotals {
    std::uint64_t ues = 0;            ///< background UEs across all cells
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t harq_drops = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t grants_used = 0;
    std::uint64_t queued = 0;
    std::uint64_t storage_bytes = 0;  ///< flat-row bytes (bytes/UE headline)
  };
  [[nodiscard]] PopulationTotals population_totals() const;

  /// One Chrome-trace lane per cell ("cell 0", "cell 1", ...); span views
  /// stay valid while the engine lives.
  [[nodiscard]] std::vector<TraceLane> trace_lanes() const;

 private:
  void advance_all(Nanos to, bool filter_idle);
  void exchange_load();

  StackConfig base_;
  Nanos slot_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::unique_ptr<Crew> crew_;       ///< window workers, engine thread included
  std::vector<Cell*> active_;        ///< window dispatch list, storage reused
  std::vector<double> load_;         ///< barrier scratch, storage reused
  std::vector<double> xlink_;        ///< barrier scratch: DL-upgrade activity
  Nanos now_{};                      ///< synchronisation frontier
};

}  // namespace u5g
