#include "serve/feasibility_service.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "core/e2e_system.hpp"
#include "sim/runner.hpp"
#include "tdd/mini_slot.hpp"

namespace u5g {

namespace {

/// Key-space tags: the two caches are separate LRUs, but tagging keeps a key
/// from ever being meaningful in the wrong one.
constexpr std::uint64_t kAnalyticTag = 0xA11A'11CA;
constexpr std::uint64_t kTailTag = 0x7A11'CAFE;
/// Words analytic_key appends after the duplex identity: the mode, the eight
/// LatencyModelParams fields and the grid density.
constexpr std::size_t kAnalyticQueryWords = 10;

CanonicalWords analytic_key(const FeasibilityQuery& q) {
  CanonicalWords k;
  k.reserve(1 + q.duplex->value_word_count() + kAnalyticQueryWords);
  k.add(kAnalyticTag);
  q.duplex->append_value_words(k);
  k.add_signed(static_cast<int>(q.mode));
  k.add_signed(q.model.data_tx_symbols);
  k.add_signed(q.model.sr_symbols);
  k.add_signed(q.model.sender_processing.count());
  k.add_signed(q.model.receiver_processing.count());
  k.add_signed(q.model.grant_decode.count());
  k.add_signed(q.model.sr_decode.count());
  k.add_signed(q.model.radio_tx.count());
  k.add_signed(q.model.radio_rx.count());
  k.add_signed(q.grid_per_symbol);
  // Deliberately NOT keyed: the deadline. The worst case is deadline-free;
  // one cached result answers every deadline for the same pattern.
  return k;
}

CanonicalWords tail_key(const SimTailSpec& spec, AccessMode mode) {
  CanonicalWords k;
  k.add(kTailTag);
  spec.config.append_canonical_words(k);
  k.add_signed(static_cast<int>(mode));
  k.add_signed(spec.replications);
  k.add_signed(spec.packets);
  // Deliberately NOT keyed: quantile and deadline. The cache stores the
  // merged sample set; any (quantile, deadline) reading derives from it.
  return k;
}

}  // namespace

FeasibilityService::FeasibilityService(Options opt)
    : opt_(opt),
      analytic_(opt.analytic_cache_capacity),
      tail_(opt.tail_cache_capacity) {}

FeasibilityService::TailSamples FeasibilityService::run_tail(const SimTailSpec& spec,
                                                             AccessMode mode) {
  if (!spec.config.duplex) {
    throw std::invalid_argument{"SimTailSpec: config.duplex is required"};
  }
  StackConfig base = spec.config;
  if (mode != AccessMode::Downlink) base.grant_free = (mode == AccessMode::GrantFreeUl);
  const Nanos period = base.duplex->period();
  const int packets = std::max(spec.packets, 1);
  auto parts = run_replications(
      std::max(spec.replications, 1), base.seed,
      [&](int, std::uint64_t seed) {
        StackConfig cfg = base;
        cfg.seed = seed;
        E2eSystem sys(cfg);
        // The paper's sparse ping workload: one packet per double period at
        // a uniform offset, so packets never queue behind each other and
        // every sample sees an independent arrival phase.
        Rng arrivals(seed ^ 0x7A11u);
        for (int p = 0; p < packets; ++p) {
          const Nanos at = period * (2 * p) +
                           Nanos{static_cast<std::int64_t>(
                               arrivals.uniform() * static_cast<double>(period.count()))};
          if (mode == AccessMode::Downlink) {
            sys.send_downlink_at(at);
          } else {
            sys.send_uplink_at(at);
          }
        }
        sys.run_until(period * (2 * packets + 20));
        TailSamples out;
        out.latency_us = sys.latency_samples_us(
            mode == AccessMode::Downlink ? Direction::Downlink : Direction::Uplink);
        out.offered = static_cast<std::size_t>(packets);
        return out;
      },
      {opt_.sim_threads});
  TailSamples merged;
  for (TailSamples& part : parts) {
    merged.latency_us.merge(part.latency_us);
    merged.offered += part.offered;
  }
  return merged;
}

FeasibilityVerdict FeasibilityService::query(const FeasibilityQuery& q) {
  if (!q.duplex) throw std::invalid_argument{"FeasibilityQuery: duplex is required"};
  FeasibilityVerdict v;
  v.mode = q.mode;
  v.deadline = q.deadline;

  // 1. Analytic fast path: probe under the lock, compute outside it.
  const CanonicalWords akey = analytic_key(q);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++queries_;
    if (const WorstCaseResult* cached = analytic_.find(akey)) {
      v.worst_case = *cached;
      v.analytic_cache_hit = true;
    }
  }
  if (!v.analytic_cache_hit) {
    const WorstCaseResult wc = analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
    v.worst_case = wc;
    std::lock_guard<std::mutex> lk(mu_);
    analytic_.insert(akey, wc);
  }
  v.analytic_meets = v.worst_case.feasible && v.worst_case.worst <= q.deadline;
  v.meets_deadline = v.analytic_meets;

  // 2. Sim-tail fallback, when asked for.
  if (q.tail) {
    const CanonicalWords tkey = tail_key(*q.tail, q.mode);
    TailSamples samples;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (const TailSamples* cached = tail_.find(tkey)) {
        samples = *cached;  // copy out: quantile() sorts, and the pointer
        hit = true;         // dies at the next insert anyway
      }
    }
    if (!hit) {
      samples = run_tail(*q.tail, q.mode);
      std::lock_guard<std::mutex> lk(mu_);
      tail_.insert(tkey, samples);
    }
    SimTailResult tr;
    tr.quantile = q.tail->quantile;
    tr.quantile_latency_us = samples.latency_us.quantile(q.tail->quantile);
    tr.reliability = evaluate_reliability(samples.latency_us, samples.offered, q.deadline);
    // Loss-aware verdict: the fraction of *offered* packets delivered within
    // the deadline must reach the requested quantile (lost packets count
    // against it, exactly as §6 counts reliability).
    tr.meets_deadline = tr.reliability.fraction_within >= tr.quantile;
    v.tail_cache_hit = hit;
    v.meets_deadline = v.analytic_meets && tr.meets_deadline;
    v.tail = tr;
  }
  return v;
}

std::vector<FeasibilityVerdict> FeasibilityService::query_batch(const QueryBatch& batch) {
  std::vector<FeasibilityVerdict> out;
  out.reserve(batch.size());
  for (const FeasibilityQuery& q : batch) out.push_back(query(q));
  return out;
}

WorstCaseResult FeasibilityService::worst_case(const DuplexConfig& cfg, AccessMode mode,
                                               const LatencyModelParams& p, int grid_per_symbol) {
  // Non-owning view (aliasing an empty owner, so no control block is
  // allocated): the query is answered synchronously, the handle never
  // outlives `cfg`.
  FeasibilityQuery q;
  q.duplex = std::shared_ptr<const DuplexConfig>(std::shared_ptr<void>{}, &cfg);
  q.mode = mode;
  q.model = p;
  q.grid_per_symbol = grid_per_symbol;
  return query(q).worst_case;
}

FeasibilityColumn FeasibilityService::evaluate_column(const DuplexConfig& cfg, Nanos deadline,
                                                      const LatencyModelParams& p) {
  FeasibilityColumn col;
  col.config_name = cfg.name();
  col.period_render = cfg.render_period();
  for (AccessMode m : {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
    FeasibilityCell cell;
    cell.mode = m;
    cell.worst_case = worst_case(cfg, m, p);
    cell.deadline = deadline;
    cell.meets_deadline = cell.worst_case.feasible && cell.worst_case.worst <= deadline;
    col.cells.push_back(cell);
  }
  if (const auto* ms = dynamic_cast<const MiniSlotConfig*>(&cfg)) {
    col.standards_caveat = ms->violates_standard_recommendation();
  }
  return col;
}

FeasibilityService::Stats FeasibilityService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.queries = queries_;
  s.analytic_hits = analytic_.stats().hits;
  s.analytic_misses = analytic_.stats().misses;
  s.tail_hits = tail_.stats().hits;
  s.tail_misses = tail_.stats().misses;
  s.evictions = analytic_.stats().evictions + tail_.stats().evictions;
  return s;
}

FeasibilityService& FeasibilityService::shared() {
  static FeasibilityService service{Options{}};
  return service;
}

}  // namespace u5g
