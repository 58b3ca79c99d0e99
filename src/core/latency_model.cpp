#include "core/latency_model.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace u5g {

namespace {

// Each access mode has one timeline builder, templated on whether it records
// its labelled steps. trace_transmission records; the worst-case sweep only
// reads latency and feasibility, so it runs the same protocol sequence with
// `Record = false` and allocates nothing.
template <bool Record>
void push_step(Timeline& tl, const char* label, Nanos start, Nanos end, LatencyCategory cat) {
  if constexpr (Record) {
    if (end > start) tl.steps.push_back(TimelineStep{label, start, end, cat});
  }
}

Timeline infeasible(Nanos arrival) {
  Timeline tl;
  tl.arrival = arrival;
  tl.completion = arrival;
  tl.feasible = false;
  return tl;
}

template <bool Record>
Timeline trace_grant_free_ul(const DuplexConfig& cfg, Nanos arrival,
                             const LatencyModelParams& p) {
  Timeline tl;
  tl.arrival = arrival;

  const Nanos ready = arrival + p.sender_processing + p.radio_tx;
  push_step<Record>(tl, "UE stack APP\xe2\x86\x93 (SDAP/PDCP/RLC/MAC/PHY)", arrival,
                    arrival + p.sender_processing, LatencyCategory::Processing);
  push_step<Record>(tl, "UE radio TX chain", arrival + p.sender_processing, ready,
                    LatencyCategory::Radio);

  const auto w = next_ul_tx(cfg, ready, p.data_tx_symbols);
  if (!w) return infeasible(arrival);
  push_step<Record>(tl, "wait for UL opportunity", ready, w->start, LatencyCategory::Protocol);
  push_step<Record>(tl, "UL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step<Record>(tl, "gNB radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  tl.completion = rx_done + p.receiver_processing;
  push_step<Record>(tl, "gNB stack MAC\xe2\x86\x91 (PHY/MAC/RLC/PDCP/SDAP)", rx_done, tl.completion,
                    LatencyCategory::Processing);
  return tl;
}

template <bool Record>
Timeline trace_grant_based_ul(const DuplexConfig& cfg, Nanos arrival,
                              const LatencyModelParams& p) {
  Timeline tl;
  tl.arrival = arrival;

  const Nanos sr_ready = arrival + p.sender_processing + p.radio_tx;
  push_step<Record>(tl, "UE stack APP\xe2\x86\x93", arrival, arrival + p.sender_processing,
                    LatencyCategory::Processing);
  push_step<Record>(tl, "UE radio TX chain", arrival + p.sender_processing, sr_ready,
                    LatencyCategory::Radio);

  // 1. Scheduling request at the next UL symbol (footnote 2).
  const auto sr = next_ul_tx(cfg, sr_ready, p.sr_symbols);
  if (!sr) return infeasible(arrival);
  push_step<Record>(tl, "wait for SR opportunity", sr_ready, sr->start, LatencyCategory::Protocol);
  push_step<Record>(tl, "SR over the air", sr->start, sr->end, LatencyCategory::Protocol);

  // 2. gNB decodes the SR; the scheduler acts at its next per-granule run.
  const Nanos sr_known = sr->end + p.radio_rx + p.sr_decode;
  push_step<Record>(tl, "gNB SR decode (radio+PHY)", sr->end, sr_known,
                    LatencyCategory::Processing);
  const Nanos decision = next_scheduler_run(cfg, sr_known);
  push_step<Record>(tl, "wait for scheduler run", sr_known, decision, LatencyCategory::Protocol);

  // 3. The UL grant rides the next DL control region.
  const auto ctrl = next_dl_control(cfg, decision);
  if (!ctrl) return infeasible(arrival);
  push_step<Record>(tl, "wait for DL control opportunity", decision, ctrl->start,
                    LatencyCategory::Protocol);
  push_step<Record>(tl, "UL grant over the air", ctrl->start, ctrl->end, LatencyCategory::Protocol);

  // 4. UE decodes the grant and transmits at the next UL window.
  const Nanos grant_ready = ctrl->end + p.radio_rx + p.grant_decode + p.radio_tx;
  push_step<Record>(tl, "UE grant decode + prep", ctrl->end, grant_ready,
                    LatencyCategory::Processing);
  const auto w = next_ul_tx(cfg, grant_ready, p.data_tx_symbols);
  if (!w) return infeasible(arrival);
  push_step<Record>(tl, "wait for granted UL window", grant_ready, w->start,
                    LatencyCategory::Protocol);
  push_step<Record>(tl, "UL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step<Record>(tl, "gNB radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  tl.completion = rx_done + p.receiver_processing;
  push_step<Record>(tl, "gNB stack MAC\xe2\x86\x91", rx_done, tl.completion,
                    LatencyCategory::Processing);
  return tl;
}

template <bool Record>
Timeline trace_downlink(const DuplexConfig& cfg, Nanos arrival, const LatencyModelParams& p) {
  Timeline tl;
  tl.arrival = arrival;

  const Nanos ready = arrival + p.sender_processing + p.radio_tx;
  push_step<Record>(tl, "gNB stack SDAP\xe2\x86\x93 (SDAP/PDCP/RLC)", arrival,
                    arrival + p.sender_processing, LatencyCategory::Processing);
  push_step<Record>(tl, "gNB radio TX chain", arrival + p.sender_processing, ready,
                    LatencyCategory::Radio);

  // Served in the first granule starting at or after readiness; the current
  // granule is already allocated (§5's DL worst-case rationale).
  const auto w = next_dl_data(cfg, ready);
  if (!w) return infeasible(arrival);
  push_step<Record>(tl, "wait for DL slot", ready, w->start, LatencyCategory::Protocol);
  push_step<Record>(tl, "DL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step<Record>(tl, "UE radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  tl.completion = rx_done + p.receiver_processing;
  push_step<Record>(tl, "UE stack PHY\xe2\x86\x91 (PHY..APP)", rx_done, tl.completion,
                    LatencyCategory::Processing);
  return tl;
}

template <bool Record>
Timeline build_timeline(const DuplexConfig& cfg, AccessMode mode, Nanos arrival,
                        const LatencyModelParams& p) {
  switch (mode) {
    case AccessMode::GrantFreeUl: return trace_grant_free_ul<Record>(cfg, arrival, p);
    case AccessMode::GrantBasedUl: return trace_grant_based_ul<Record>(cfg, arrival, p);
    case AccessMode::Downlink: return trace_downlink<Record>(cfg, arrival, p);
  }
  return infeasible(arrival);
}

/// The worst-case sweep's probes, indexed in arrival order. Each symbol of
/// the period (laid out the way SlotClock lays them out, so probes align
/// with true boundaries) contributes `grid + 1` probes: the boundary, the
/// instant just after it ("just after a DL slot starts" is the paper's
/// worst case) and `grid - 1` uniform interior points.
struct ProbeGrid {
  // The first interior point, floor(sym / grid), never falls before the
  // +1 ns probe, so offsets never decrease along the sweep.
  static_assert(kMaxGridPerSymbol <= kMu6.symbol_duration().count());

  Nanos slot;
  Nanos sym;
  std::int64_t grid;
  std::int64_t per_symbol = grid + 1;

  [[nodiscard]] Nanos offset(std::int64_t q) const {
    const std::int64_t m = q / per_symbol;
    const std::int64_t j = q % per_symbol;
    const Nanos boundary = slot * (m / kSymbolsPerSlot) + sym * (m % kSymbolsPerSlot);
    return boundary + (j == 0 ? Nanos{0} : j == 1 ? Nanos{1} : sym * (j - 1) / grid);
  }

  /// Sum of offset(q) over the probes of the first `m` symbols, in closed
  /// form. Within a symbol the interior points add up to
  /// sum_{g<grid} floor(sym g / grid) = ((sym-1)(grid-1) + gcd(sym, grid) - 1) / 2.
  [[nodiscard]] std::int64_t offset_sum(std::int64_t m) const {
    const std::int64_t a = m / kSymbolsPerSlot;  // whole slots
    const std::int64_t b = m % kSymbolsPerSlot;  // symbols of the last slot
    const std::int64_t s = sym.count();
    const std::int64_t slots = kSymbolsPerSlot * (a * (a - 1) / 2) + b * a;
    const std::int64_t syms = a * (kSymbolsPerSlot * (kSymbolsPerSlot - 1) / 2) + b * (b - 1) / 2;
    const std::int64_t within = 1 + ((s - 1) * (grid - 1) + std::gcd(s, grid) - 1) / 2;
    return per_symbol * (slot.count() * slots + s * syms) + m * within;
  }
};

}  // namespace

Nanos Timeline::category_total(LatencyCategory c) const {
  Nanos total = Nanos::zero();
  for (const TimelineStep& s : steps) {
    if (s.category == c) total += s.duration();
  }
  return total;
}

std::string Timeline::render() const {
  std::string out;
  for (const TimelineStep& s : steps) {
    out += "  [" + std::string(to_string(s.category)) + "] " + s.label + ": " +
           to_string(s.start - arrival) + " -> " + to_string(s.end - arrival) + " (+" +
           to_string(s.duration()) + ")\n";
  }
  out += "  total: " + to_string(latency()) + "\n";
  return out;
}

Timeline trace_transmission(const DuplexConfig& cfg, AccessMode mode, Nanos arrival,
                            const LatencyModelParams& p) {
  return build_timeline<true>(cfg, mode, arrival, p);
}

WorstCaseResult analyze_worst_case(const DuplexConfig& cfg, AccessMode mode,
                                   const LatencyModelParams& p, int grid_per_symbol) {
  if (grid_per_symbol < 1 || grid_per_symbol > kMaxGridPerSymbol) {
    throw std::invalid_argument{"analyze_worst_case: grid_per_symbol out of [1, " +
                                std::to_string(kMaxGridPerSymbol) + "]"};
  }
  WorstCaseResult r;
  const SlotClock clk = cfg.clock();
  const ProbeGrid grid{clk.slot_duration(), clk.symbol_duration(), grid_per_symbol};
  // Anchor the sweep away from t=0 so look-behind arithmetic stays positive.
  const Nanos base = cfg.period() * 8;
  struct Probe {
    std::int64_t index;
    Nanos offset;
    std::optional<Nanos> completion;  ///< nullopt when infeasible
  };
  auto probe = [&](std::int64_t q) {
    const Nanos offset = grid.offset(q);
    const Timeline tl = build_timeline<false>(cfg, mode, base + offset, p);
    return Probe{q, offset, tl.feasible ? std::optional<Nanos>{tl.completion} : std::nullopt};
  };

  // Walk the probes in order, one constant segment [head, lo] at a time. An
  // infeasible probe is counted out on its own and ends the sweep after the
  // rest of its symbol's probes.
  std::int64_t end = grid.per_symbol * cfg.period_slots() * kSymbolsPerSlot;
  std::int64_t n = 0;
  std::int64_t sum = 0;  // sum of (completion - base) over counted probes
  std::int64_t infeasible_offsets = 0;
  std::int64_t guess = 1;  // the previous segment's length
  Probe head = probe(0);
  while (head.index < end) {
    if (!head.completion) {
      if (r.feasible) end = (head.index / grid.per_symbol + 1) * grid.per_symbol;
      r.feasible = false;
      infeasible_offsets += head.offset.count();
      if (head.index + 1 == end) break;
      head = probe(head.index + 1);
      continue;
    }
    // Find the segment's last probe lo: try the previous segment's length
    // (capped at the probes left), then gallop and bisect. `next` is the
    // first probe known to differ (index `end` until one is found).
    const Nanos f = *head.completion;
    Probe lo = head;
    Probe next{end, Nanos::zero(), std::nullopt};
    auto same = [&](std::int64_t x) {
      const Probe at = probe(x);
      if (at.completion != f) {
        next = at;
        return false;
      }
      lo = at;
      return true;
    };
    if (guess > 1 && next.index - head.index > 1) {
      same(std::min(head.index + guess, next.index) - 1);
    }
    for (std::int64_t step = 1; lo.index + step < next.index && same(lo.index + step);
         step *= 2) {
    }
    while (next.index - lo.index > 1) same(lo.index + (next.index - lo.index) / 2);

    // Latency f - base - offset falls along the segment: its first probe is
    // the worst (and first in sweep order), its last the best.
    if (f - base - head.offset > r.worst) {
      r.worst = f - base - head.offset;
      r.worst_arrival_offset = head.offset;
    }
    r.best = std::min(r.best, f - base - lo.offset);
    guess = lo.index - head.index + 1;
    sum += guess * (f - base).count();
    n += guess;
    head = next;
  }
  // Every latency is a whole number of ns, so while the total stays below
  // 2^53 ns (~104 days) this mean is bit-identical to accumulating the
  // probes one by one in a double.
  sum -= grid.offset_sum(end / grid.per_symbol) - infeasible_offsets;
  if (n > 0) r.mean = Nanos{static_cast<std::int64_t>(static_cast<double>(sum) /
                                                      static_cast<double>(n))};
  if (r.best == Nanos::max()) r.best = Nanos::zero();
  return r;
}

}  // namespace u5g
