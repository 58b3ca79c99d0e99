// serve_zipf: a synchronous closed loop with one client against the
// FeasibilityService — the way its real callers (design_space,
// build_table1) use it: each waits for its reply before asking again.
//
// Queries are Zipf-ranked over a universe of analytic questions four times
// the analytic cache's capacity: the Table 1 patterns x 3 access modes x
// LatencyModelParams variants. The seed draws the query sequence and a
// sub-microsecond jitter on each variant's processing time; which keys are
// popular is fixed, so the hit rate and the share of late verdicts do not
// swing with the few hottest keys. The LRU serves hits (reads) beside
// misses that recompute the analytic worst case, insert and evict
// (writes); no simulator runs.
// Sim-tail queries are left out: their cost is E2eSystem replication,
// which cell_nru measures.
//
// An op is one query. A step is one query; a block is 256 queries.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/feasibility.hpp"
#include "serve/feasibility_service.hpp"

namespace pb {
namespace {

using namespace u5g;

constexpr std::size_t kCapacity = 4096;           ///< analytic cache entries
constexpr std::size_t kUniverse = 4 * kCapacity;  ///< distinct analytic keys
constexpr double kZipfExponent = 0.9;
constexpr std::size_t kQueriesPerPass = 100'000;
constexpr std::size_t kQueriesPerBlock = 256;
constexpr std::size_t kCheckEvery = 64;  ///< recompute every Nth verdict uncached

/// The universe: every Table 1 pattern and access mode, crossed with
/// LatencyModelParams variants on a processing/radio grid plus a seeded
/// jitter below 1 us.
std::vector<FeasibilityQuery> make_universe(std::uint64_t seed, Nanos deadline) {
  Rng jitter(seed ^ 0x71e5ULL);
  std::vector<std::shared_ptr<const DuplexConfig>> patterns;
  for (auto& c : table1_configs()) patterns.emplace_back(std::move(c));
  const AccessMode modes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                              AccessMode::Downlink};
  const std::size_t per_variant = patterns.size() * 3;
  std::vector<FeasibilityQuery> u;
  u.reserve(kUniverse);
  for (std::size_t v = 0; u.size() < kUniverse; ++v) {
    LatencyModelParams p;
    p.sender_processing = Nanos{static_cast<std::int64_t>(v % 16) * 20'000 +
                                static_cast<std::int64_t>(jitter.uniform_int(1000))};
    p.receiver_processing = Nanos{static_cast<std::int64_t>((v / 16) % 16) * 20'000};
    p.radio_tx = Nanos{static_cast<std::int64_t>((v / 256) % 8) * 10'000};
    p.radio_rx = Nanos{static_cast<std::int64_t>(v / 2048) * 10'000};
    for (std::size_t k = 0; k < per_variant && u.size() < kUniverse; ++k) {
      u.push_back(FeasibilityQuery::analytic(patterns[k / 3], modes[k % 3], deadline, p));
    }
  }
  return u;
}

/// Query stream: seeded Zipf ranks mapped onto universe indices through a
/// fixed permutation.
std::vector<std::uint32_t> make_stream(std::uint64_t seed, std::uint64_t salt, std::size_t n) {
  Rng rng(seed ^ salt);
  std::vector<std::uint32_t> perm(kUniverse);
  std::iota(perm.begin(), perm.end(), 0U);
  Rng shuffle(0x5e7eULL);
  for (std::size_t i = kUniverse - 1; i > 0; --i) {
    std::swap(perm[i], perm[shuffle.uniform_int(i + 1)]);
  }
  std::vector<double> cdf(kUniverse);
  double acc = 0.0;
  for (std::size_t k = 0; k < kUniverse; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -kZipfExponent);
    cdf[k] = acc;
  }
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t& q : out) {
    const double x = rng.uniform() * acc;
    const auto rank = static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), x) -
                                               cdf.begin());
    q = perm[std::min(rank, kUniverse - 1)];
  }
  return out;
}

bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

struct Checked {
  std::uint32_t key;
  FeasibilityVerdict verdict;
};

/// What the traced passes saw, split by each verdict's analytic_cache_hit.
struct Layer {
  std::uint64_t hits = 0, misses = 0;
  double hit_ns = 0.0, miss_ns = 0.0;
  std::vector<std::uint32_t> miss_keys;
};

double mean(double total, std::uint64_t n) { return n == 0 ? 0.0 : total / static_cast<double>(n); }

class Serve final : public Workload {
 public:
  Serve(const Options& opt, Spans& spans)
      : opt_(opt), spans_(spans), universe_(make_universe(opt.seed, opt.deadline)),
        stream_(make_stream(opt.seed, 0x5e4eULL, kQueriesPerPass)),
        warmup_(make_stream(opt.seed, 0x3a2bULL, 8 * kCapacity)) {}

  /// Construction and warm-up: queries from a separate stream until the
  /// cache has taken at least its capacity in misses, i.e. is full.
  double setup() override {
    svc_.reset();
    const auto t0 = Clock::now();
    FeasibilityService::Options o;
    o.analytic_cache_capacity = kCapacity;
    o.threads = 1;
    o.sim_threads = 1;
    svc_ = std::make_unique<FeasibilityService>(o);
    for (std::size_t i = 0; svc_->stats().analytic_misses < kCapacity; ++i) {
      (void)svc_->query(universe_[warmup_[i % warmup_.size()]]);
    }
    const double s = seconds_between(t0, Clock::now());
    evictions0_ = svc_->stats().evictions;
    return s;
  }

  void run_pass(Timer& timer) override {
    checked_.clear();
    latencies_.clear();
    Layer* layer = spans_.on() ? &layer_ : nullptr;
    for (std::size_t i = 0; i < stream_.size();) {
      const std::size_t start = i;
      const std::size_t end = std::min(i + kQueriesPerBlock, stream_.size());
      timer.begin_block();
      for (; i < end; ++i) {
        const std::uint32_t key = stream_[i];
        const auto a = Clock::now();
        FeasibilityVerdict v = svc_->query(universe_[key]);
        const auto b = Clock::now();
        timer.add_step(a, b);
        if (layer != nullptr) {
          spans_.add(v.analytic_cache_hit ? "serve.query.hit" : "serve.query.miss",
                     static_cast<std::int32_t>(key), a, b);
          const double ns = seconds_between(a, b) * 1e9;
          if (v.analytic_cache_hit) {
            ++layer->hits;
            layer->hit_ns += ns;
          } else {
            ++layer->misses;
            layer->miss_ns += ns;
            if (layer->miss_keys.size() < 2000) layer->miss_keys.push_back(key);
          }
        }
        if (v.worst_case.feasible) latencies_.push_back(v.worst_case.worst.count());
        if (i % kCheckEvery == 0) checked_.push_back({key, std::move(v)});
      }
      timer.end_block(end - start);
    }
  }

  /// The fingerprint is the pass's evictions: every pass starts from the
  /// same warm cache.
  PassOutcome finish_pass(Report& r, std::uint64_t /*pass_ops*/) override {
    if (const std::uint64_t bad = mismatches(); bad != 0) {
      r.fail("serve_zipf: cached verdict differs from analyze_worst_case", bad * kCheckEvery);
    }
    evictions_ = svc_->stats().evictions - evictions0_;
    return {sim_outcome(latencies_, stream_.size(), opt_.deadline), evictions_};
  }

  void report_layers(const Phase& /*ph*/, Report& r) override {
    // The analytic worst case alone, on keys that missed.
    double wc_ns = 0.0;
    std::int64_t sink = 0;
    spans_.set_on(true);
    for (const std::uint32_t key : layer_.miss_keys) {
      const FeasibilityQuery& q = universe_[key];
      const auto a = Clock::now();
      const WorstCaseResult w = analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
      const auto b = Clock::now();
      spans_.add("core.analyze_worst_case", static_cast<std::int32_t>(key), a, b);
      wc_ns += seconds_between(a, b) * 1e9;
      sink += w.worst.count();
    }
    r.add_diag("worst_case_sink", static_cast<double>(sink), "ns");
    r.add("serve.hit_rate",
          static_cast<double>(layer_.hits) / static_cast<double>(layer_.hits + layer_.misses),
          "fraction");
    r.add("serve.evictions", static_cast<double>(evictions_), "count");
    r.add("serve.hit_ns", mean(layer_.hit_ns, layer_.hits), "ns");
    r.add("serve.miss_ns", mean(layer_.miss_ns, layer_.misses), "ns");
    r.add("core.worst_case_ns", mean(wc_ns, layer_.miss_keys.size()), "ns");
  }

 private:
  /// Every Nth verdict of the pass against the uncached analytic path.
  /// Returns the number that differ.
  [[nodiscard]] std::uint64_t mismatches() const {
    std::uint64_t bad = 0;
    for (const Checked& c : checked_) {
      const FeasibilityQuery& q = universe_[c.key];
      const WorstCaseResult direct =
          analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
      const bool meets = direct.feasible && direct.worst <= q.deadline;
      if (!same_worst_case(c.verdict.worst_case, direct) || c.verdict.meets_deadline != meets) {
        ++bad;
      }
    }
    return bad;
  }

  const Options& opt_;
  Spans& spans_;
  std::vector<FeasibilityQuery> universe_;
  std::vector<std::uint32_t> stream_;
  std::vector<std::uint32_t> warmup_;
  std::unique_ptr<FeasibilityService> svc_;
  std::vector<Checked> checked_;
  /// The answers as a simulated outcome: the analytic worst-case latency of
  /// each feasible verdict; infeasible and late verdicts are misses.
  std::vector<std::int64_t> latencies_;
  std::uint64_t evictions0_ = 0;  ///< after the warm-up
  std::uint64_t evictions_ = 0;   ///< over the last pass
  Layer layer_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& opt, Spans& spans) {
  return std::make_unique<Serve>(opt, spans);
}

}  // namespace pb
