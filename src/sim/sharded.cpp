#include "sim/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/crew.hpp"
#include "sim/runner.hpp"

namespace u5g {

ShardedEngine::ShardedEngine(const StackConfig& base, ShardedOptions opt) : base_(base) {
  base_.validate();
  slot_ = base_.duplex->numerology().slot_duration();
  cells_.reserve(static_cast<std::size_t>(base_.num_cells));
  for (int i = 0; i < base_.num_cells; ++i) {
    cells_.push_back(std::make_unique<Cell>(base_, i));
  }
  active_.reserve(cells_.size());
  load_.resize(cells_.size());
  xlink_.resize(cells_.size());
  crew_ = std::make_unique<Crew>(std::min(resolve_threads(opt.threads), base_.num_cells));
}

ShardedEngine::~ShardedEngine() = default;

int ShardedEngine::threads() const { return crew_->width(); }

void ShardedEngine::send_uplink_at(Nanos at, int cell, int ue) {
  if (cell < 0 || cell >= num_cells()) throw std::out_of_range{"ShardedEngine: cell index"};
  if (at < now_) throw std::invalid_argument{"ShardedEngine: injection behind the frontier"};
  cells_[static_cast<std::size_t>(cell)]->queue_uplink(at, ue);
}

void ShardedEngine::send_downlink_at(Nanos at, int cell, int ue) {
  if (cell < 0 || cell >= num_cells()) throw std::out_of_range{"ShardedEngine: cell index"};
  if (at < now_) throw std::invalid_argument{"ShardedEngine: injection behind the frontier"};
  cells_[static_cast<std::size_t>(cell)]->queue_downlink(at, ue);
}

void ShardedEngine::advance_all(Nanos to, bool filter_idle) {
  // One reused dispatch list per window — no per-cell closures, no queue.
  // Skipping a cell whose next activity lies beyond the window is safe:
  // advancing it would only move its local clock (it still receives
  // set_neighbor_load at the barrier, and its load signal cannot change
  // without an event); the final window runs unfiltered so every clock
  // lands exactly on `until`.
  active_.clear();
  for (auto& c : cells_) {
    if (!filter_idle || c->next_activity() <= to) active_.push_back(c.get());
  }
  crew_->parallel_for(active_.size(), [this, to](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) active_[i]->advance_to(to);
  });
}

void ShardedEngine::exchange_load() {
  // Gathered and applied in fixed cell order on the engine thread, so the
  // (floating-point) aggregate is identical for every worker thread count.
  double total = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    load_[i] = static_cast<double>(cells_[i]->load_signal());
    total += load_[i];
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i]->set_neighbor_load(base_.intercell_load_coupling * (total - load_[i]));
  }
  // Dynamic-TDD cross-link: a cell's DL-upgraded symbols interfere with its
  // neighbours' uplink. Same fixed-order gather/apply as the load signal, so
  // the aggregate is identical for every worker thread count; a cell never
  // sees its own activity. Skipped entirely when the policy is disabled.
  if (base_.dynamic_tdd.enabled) {
    double activity = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      xlink_[i] = cells_[i]->dl_upgrade_activity();
      activity += xlink_[i];
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i]->set_crosslink(base_.intercell_load_coupling * (activity - xlink_[i]));
    }
  }
}

void ShardedEngine::run_until(Nanos until) {
  if (until <= now_) return;
  if (base_.intercell_load_coupling == 0.0 || cells_.size() == 1) {
    // No cross-cell dependency: the lookahead is infinite, one window.
    advance_all(until, /*filter_idle=*/false);
    now_ = until;
    return;
  }
  while (now_ < until) {
    // Adaptive window: nothing anywhere can fire before tmin, so every
    // slot-grid barrier below it would recompute and re-apply unchanged
    // loads — skip straight to the first barrier that can matter. The
    // produced barrier sequence is a no-op-free subset of the fixed
    // one-slot schedule, hence bitwise-identical results.
    Nanos tmin = Nanos::max();
    for (const auto& c : cells_) tmin = std::min(tmin, c->next_activity());
    Nanos end = until;
    if (tmin < until) {
      if (tmin < now_) tmin = now_;  // conservative estimates may trail the frontier
      const std::int64_t grid =
          (tmin.count() + slot_.count() - 1) / slot_.count() * slot_.count();
      Nanos barrier{grid};
      if (barrier <= now_) barrier = now_ + slot_;  // activity at an aligned frontier
      end = std::min(barrier, until);
    }
    advance_all(end, /*filter_idle=*/end != until);
    exchange_load();
    now_ = end;
  }
}

SampleSet ShardedEngine::latency_samples_us(Direction dir) const {
  SampleSet merged;
  for (const auto& c : cells_) merged.merge(c->system().latency_samples_us(dir));
  return merged;
}

MetricsRegistry ShardedEngine::merged_metrics() const {
  MetricsRegistry merged;
  for (const auto& c : cells_) {
    merged.merge(c->system().metrics());
    if (c->population() != nullptr) c->population()->export_metrics(merged);
  }
  return merged;
}

std::uint64_t ShardedEngine::packets_started() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().packets_started();
  return n;
}

std::uint64_t ShardedEngine::packets_delivered() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().packets_delivered();
  return n;
}

std::uint64_t ShardedEngine::radio_deadline_misses() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().radio_deadline_misses();
  return n;
}

std::uint64_t ShardedEngine::events_fired() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().simulator().events_fired();
  return n;
}

std::uint64_t ShardedEngine::punctured_retx() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().punctured_retx();
  return n;
}

std::uint64_t ShardedEngine::crosslink_ul_losses() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().crosslink_ul_losses();
  return n;
}

std::uint64_t ShardedEngine::dynamic_upgraded_slots() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->system().dynamic_upgraded_slots();
  return n;
}

LbtGate::Stats ShardedEngine::lbt_stats() const {
  LbtGate::Stats t;
  for (const auto& c : cells_) {
    const LbtGate::Stats s = c->system().lbt_stats();
    t.attempts += s.attempts;
    t.deferred += s.deferred;
    t.deferral_total += s.deferral_total;
    t.cw_doublings += s.cw_doublings;
    t.cw_resets += s.cw_resets;
    t.hidden_collisions += s.hidden_collisions;
    t.nru_airtime += s.nru_airtime;
    t.wifi_overlap += s.wifi_overlap;
  }
  return t;
}

ShardedEngine::PopulationTotals ShardedEngine::population_totals() const {
  PopulationTotals t;
  for (const auto& c : cells_) {
    const UePopulation* p = c->population();
    if (p == nullptr) continue;
    t.ues += p->size();
    t.offered += p->counters().offered;
    t.delivered += p->counters().delivered;
    t.harq_drops += p->counters().harq_drops;
    t.queue_drops += p->counters().queue_drops;
    t.grants_used += p->counters().grants_used;
    t.queued += p->queued_packets();
    t.storage_bytes += p->storage_bytes();
  }
  return t;
}

std::vector<TraceLane> ShardedEngine::trace_lanes() const {
  std::vector<TraceLane> lanes;
  lanes.reserve(cells_.size());
  for (const auto& c : cells_) {
    lanes.push_back(TraceLane{"cell " + std::to_string(c->index()), c->system().tracer().spans()});
  }
  return lanes;
}

}  // namespace u5g
