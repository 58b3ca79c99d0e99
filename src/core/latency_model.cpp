#include "core/latency_model.hpp"

#include <algorithm>

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
  WorstCaseResult r;
  const SlotClock clk = cfg.clock();
  // Anchor the sweep away from t=0 so look-behind arithmetic stays positive.
  const Nanos base = cfg.period() * 8;
  const Nanos sym = clk.symbol_duration();

  double sum = 0.0;
  std::size_t n = 0;
  auto probe = [&](Nanos offset) {
    const Timeline tl = build_timeline<false>(cfg, mode, base + offset, p);
    if (!tl.feasible) {
      r.feasible = false;
      return;
    }
    const Nanos lat = tl.latency();
    if (lat > r.worst) {
      r.worst = lat;
      r.worst_arrival_offset = offset;
    }
    r.best = std::min(r.best, lat);
    sum += static_cast<double>(lat.count());
    ++n;
  };

  // Probe every symbol boundary of every slot in the period (computed the
  // same way SlotClock lays them out, so probes align with true boundaries),
  // the instant just after each ("just after a DL slot starts" is the
  // paper's worst case), and a uniform grid between boundaries.
  for (int slot = 0; slot < cfg.period_slots() && r.feasible; ++slot) {
    const Nanos slot_off = clk.slot_duration() * slot;
    for (int s = 0; s < kSymbolsPerSlot && r.feasible; ++s) {
      const Nanos boundary = slot_off + sym * s;
      probe(boundary);
      probe(boundary + Nanos{1});
      for (int g = 1; g < grid_per_symbol; ++g) {
        probe(boundary + sym * g / grid_per_symbol);
      }
    }
  }
  if (n > 0) r.mean = Nanos{static_cast<std::int64_t>(sum / static_cast<double>(n))};
  if (r.best == Nanos::max()) r.best = Nanos::zero();
  return r;
}

}  // namespace u5g
