// Tests for the feasibility-query service (src/serve/) and its foundations:
// the canonical word stream + LRU cache (src/common/), DuplexConfig value
// identity, the StackConfig canonical word stream, and the service's
// correctness contract — answers bit-identical to the offline analytic path
// for every Table 1 config x access mode, cache hits identical to cold
// misses, sim tails bitwise deterministic across 1/2/8 service threads, and
// LRU eviction never changing an answer.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hashing.hpp"
#include "common/lru.hpp"
#include "core/feasibility.hpp"
#include "core/stack_config.hpp"
#include "serve/feasibility_service.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

/// The streams the caches key on: a duplex pattern's value identity and a
/// StackConfig's canonical identity.
CanonicalWords value_words(const DuplexConfig& c) {
  CanonicalWords w;
  c.append_value_words(w);
  return w;
}

CanonicalWords canonical_words(const StackConfig& c) {
  CanonicalWords w;
  c.append_canonical_words(w);
  return w;
}

bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

// ---------------------------------------------------------------------------
// CanonicalWords

TEST(CanonicalWordsTest, EqualStreamsEqualHashes) {
  CanonicalWords a;
  a.add(1);
  a.add_signed(-7);
  a.add_double(0.25);
  a.add_string("usb2");
  CanonicalWords b;
  b.add(1);
  b.add_signed(-7);
  b.add_double(0.25);
  b.add_string("usb2");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CanonicalWordsTest, OrderIsSignificant) {
  CanonicalWords a;
  a.add(1);
  a.add(2);
  CanonicalWords b;
  b.add(2);
  b.add(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(CanonicalWordsTest, LengthPrefixedStringsDoNotAlias) {
  // "ab" + "c" must not equal "a" + "bc".
  CanonicalWords a;
  a.add_string("ab");
  a.add_string("c");
  CanonicalWords b;
  b.add_string("a");
  b.add_string("bc");
  EXPECT_NE(a, b);
}

TEST(CanonicalWordsTest, DoubleIdentityIsBitwise) {
  CanonicalWords a;
  a.add_double(0.0);
  CanonicalWords b;
  b.add_double(-0.0);
  EXPECT_NE(a, b);  // distinct bit patterns are distinct identities
}

// ---------------------------------------------------------------------------
// LruCache

TEST(LruCacheTest, InsertFindPromote) {
  LruCache<int, std::string> cache(2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  ASSERT_NE(cache.find(1), nullptr);  // promotes 1 to MRU
  cache.insert(3, "three");           // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), "one");
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, OverwritePromotesAndReplaces) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(1, 11);  // overwrite promotes 1
  cache.insert(3, 30);  // evicts 2
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_EQ(cache.find(2), nullptr);
}

TEST(LruCacheTest, ZeroCapacityCachesNothing) {
  LruCache<int, int> cache(0);
  cache.insert(1, 10);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, HitRateCounts) {
  LruCache<int, int> cache(4);
  cache.insert(1, 10);
  EXPECT_EQ(cache.find(1) != nullptr, true);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Duplex value identity

TEST(DuplexIdentityTest, EqualPatternsCompareEqualByValue) {
  const TddCommonConfig a = TddCommonConfig::dm(kMu2);
  const TddCommonConfig b = TddCommonConfig::dm(kMu2);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(value_words(a), value_words(b));
}

TEST(DuplexIdentityTest, DistinctPatternsDiffer) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const TddCommonConfig du = TddCommonConfig::du(kMu2);
  const FddConfig fdd(kMu2);
  EXPECT_NE(value_words(dm), value_words(du));
  EXPECT_NE(value_words(dm), value_words(fdd));
}

TEST(DuplexIdentityTest, ValueWordCountMatchesAppendedWords) {
  // value_word_count() sizes the analytic key's reservation: it must equal
  // what append_value_words appends, including a direction map that ends
  // mid-word (5 slots) and one that fills its last word exactly (16 slots).
  std::vector<std::unique_ptr<DuplexConfig>> cfgs = table1_configs();
  cfgs.push_back(std::make_unique<SlotFormatConfig>(kMu2, std::vector<int>{0, 1, 0, 1, 2}));
  cfgs.push_back(std::make_unique<SlotFormatConfig>(kMu2, std::vector<int>(16, 0)));
  for (const auto& cfg : cfgs) {
    CanonicalWords words;
    cfg->append_value_words(words);
    EXPECT_EQ(cfg->value_word_count(), words.size()) << cfg->name();
  }
}

TEST(DuplexIdentityTest, NumerologyParticipates) {
  const MiniSlotConfig a(kMu2, 2);
  const MiniSlotConfig b(kMu1, 2);
  EXPECT_NE(value_words(a), value_words(b));
}

// ---------------------------------------------------------------------------
// StackConfig canonical identity

TEST(StackConfigIdentityTest, EqualConfigsShareKeyAndCompareEqual) {
  const StackConfig a = StackConfig::testbed_grant_free(7);
  const StackConfig b = StackConfig::testbed_grant_free(7);
  // Distinct shared_ptr instances to equal duplex patterns: identity is by
  // value, never by pointer.
  EXPECT_NE(a.duplex.get(), b.duplex.get());
  EXPECT_EQ(canonical_words(a), canonical_words(b));
}

TEST(StackConfigIdentityTest, EveryKnobParticipates) {
  const StackConfig base = StackConfig::testbed_grant_free(7);
  StackConfig seed = base;
  seed.seed = 8;
  StackConfig loss = base;
  loss.channel_loss = 0.01;
  StackConfig ues = base;
  ues.num_ues = 2;
  StackConfig duplex = base;
  duplex.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  for (const StackConfig* c : {&seed, &loss, &ues, &duplex}) {
    EXPECT_NE(canonical_words(base), canonical_words(*c));
  }
}

TEST(StackConfigIdentityTest, ReplacingDuplexWithEqualValueKeepsKey) {
  const StackConfig a = StackConfig::testbed_grant_free(7);
  StackConfig b = a;
  b.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1));
  ASSERT_NE(a.duplex.get(), b.duplex.get());
  EXPECT_EQ(canonical_words(a), canonical_words(b));
}

TEST(StackConfigIdentityTest, DynamicTddKnobsParticipate) {
  // A dynamic-policy query must never hit a static-pattern cache entry: the
  // same stack with dynamic TDD switched on keys differently.
  const StackConfig base = StackConfig::testbed_grant_free(7);
  StackConfig dyn = base;
  dyn.dynamic_tdd.enabled = true;
  EXPECT_NE(canonical_words(base), canonical_words(dyn));

  // Every policy knob perturbs the key on its own.
  StackConfig guard = dyn;
  guard.dynamic_tdd.guard_slots = 2;
  StackConfig hold = dyn;
  hold.dynamic_tdd.hold_slots = 8;
  StackConfig ul_guard = dyn;
  ul_guard.dynamic_tdd.ul_guard_slots = 2;
  StackConfig preempt = dyn;
  preempt.dynamic_tdd.preemption = true;
  StackConfig xlink = dyn;
  xlink.dynamic_tdd.xlink_ul_bler = 0.1;
  for (const StackConfig* c : {&guard, &hold, &ul_guard, &preempt, &xlink}) {
    EXPECT_NE(canonical_words(dyn), canonical_words(*c));
  }

  // Equal policies still share a key, so dynamic queries cache normally.
  StackConfig same = base;
  same.dynamic_tdd.enabled = true;
  EXPECT_EQ(canonical_words(dyn), canonical_words(same));
}

// ---------------------------------------------------------------------------
// Service: analytic answers bit-identical to the offline path

TEST(FeasibilityServiceTest, BitIdenticalToOfflineForAllTable1Configs) {
  FeasibilityService service;
  auto cfgs = table1_configs();
  for (auto& cfg : cfgs) {
    const std::shared_ptr<const DuplexConfig> shared = std::move(cfg);
    for (AccessMode m :
         {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
      const WorstCaseResult direct = analyze_worst_case(*shared, m);
      const FeasibilityVerdict v =
          service.query(FeasibilityQuery::analytic(shared, m, kUrllcOneWayDeadline));
      EXPECT_TRUE(same_worst_case(v.worst_case, direct)) << shared->name();
      const bool direct_meets = direct.feasible && direct.worst <= kUrllcOneWayDeadline;
      EXPECT_EQ(v.meets_deadline, direct_meets) << shared->name();
    }
  }
}

TEST(FeasibilityServiceTest, RejectsNonPositiveGrid) {
  // A grid below 1 used to run the grid-1 sweep under a cache key of its
  // own; it is now an error, and a rejected query caches nothing.
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  for (int grid : {0, -1, -7}) {
    FeasibilityQuery q = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
    q.grid_per_symbol = grid;
    EXPECT_THROW((void)service.query(q), std::invalid_argument) << grid;
    EXPECT_THROW((void)service.query(q), std::invalid_argument) << grid;
    EXPECT_THROW((void)service.worst_case(*cfg, AccessMode::Downlink, {}, grid),
                 std::invalid_argument)
        << grid;
  }
  FeasibilityQuery one = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
  one.grid_per_symbol = 1;
  const FeasibilityVerdict v = service.query(one);
  EXPECT_FALSE(v.analytic_cache_hit);
  EXPECT_TRUE(
      same_worst_case(v.worst_case, analyze_worst_case(*cfg, AccessMode::GrantFreeUl, {}, 1)));
}

TEST(FeasibilityServiceTest, WrapperMatchesServiceColumn) {
  // build_table1's DM column (answered by the shared service) equals a
  // fresh service's answer to each of its three queries.
  FeasibilityService service;
  const Table1 t = build_table1();
  const auto dm = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  const FeasibilityColumn& col = t.columns[1];
  ASSERT_EQ(col.config_name, dm->name());
  ASSERT_EQ(col.cells.size(), 3u);
  for (const FeasibilityCell& cell : col.cells) {
    const FeasibilityVerdict v = service.query(FeasibilityQuery::analytic(dm, cell.mode));
    EXPECT_TRUE(same_worst_case(cell.worst_case, v.worst_case)) << to_string(cell.mode);
    EXPECT_EQ(cell.meets_deadline, v.meets_deadline) << to_string(cell.mode);
    EXPECT_EQ(cell.deadline, v.deadline) << to_string(cell.mode);
  }
}

TEST(FeasibilityServiceTest, CacheHitIdenticalToColdMiss) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  const FeasibilityQuery q = FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl);
  const FeasibilityVerdict cold = service.query(q);
  EXPECT_FALSE(cold.analytic_cache_hit);
  const FeasibilityVerdict warm = service.query(q);
  EXPECT_TRUE(warm.analytic_cache_hit);
  EXPECT_TRUE(same_worst_case(cold.worst_case, warm.worst_case));
  EXPECT_EQ(cold.meets_deadline, warm.meets_deadline);
}

TEST(FeasibilityServiceTest, EqualValueDistinctPointersShareCacheEntry) {
  FeasibilityService service;
  const auto a = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  const auto b = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(a, AccessMode::GrantFreeUl));
  const FeasibilityVerdict v = service.query(FeasibilityQuery::analytic(b, AccessMode::GrantFreeUl));
  EXPECT_TRUE(v.analytic_cache_hit);  // keyed by value, not pointer
}

TEST(FeasibilityServiceTest, DeadlineDoesNotMissTheCache) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl, Nanos{500'000}));
  const FeasibilityVerdict v =
      service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl, Nanos{1'000'000}));
  EXPECT_TRUE(v.analytic_cache_hit);  // the worst case is deadline-free
}

/// The Table 1 batch: every candidate pattern under every access mode.
QueryBatch table1_batch() {
  static const std::vector<std::shared_ptr<const DuplexConfig>> cfgs = [] {
    std::vector<std::shared_ptr<const DuplexConfig>> v;
    for (auto& c : table1_configs()) v.emplace_back(std::move(c));
    return v;
  }();
  QueryBatch batch;
  for (const auto& cfg : cfgs) {
    for (AccessMode m :
         {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
      batch.push_back(FeasibilityQuery::analytic(cfg, m));
    }
  }
  return batch;
}

std::vector<FeasibilityVerdict> answer_one_by_one(const QueryBatch& batch) {
  FeasibilityService fresh;
  std::vector<FeasibilityVerdict> sync;
  sync.reserve(batch.size());
  for (const FeasibilityQuery& q : batch) sync.push_back(fresh.query(q));
  return sync;
}

TEST(FeasibilityServiceTest, BatchMatchesSync) {
  const QueryBatch batch = table1_batch();
  const std::vector<FeasibilityVerdict> sync = answer_one_by_one(batch);
  FeasibilityService service;
  const std::vector<FeasibilityVerdict> batched = service.query_batch(batch);
  ASSERT_EQ(batched.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_TRUE(same_worst_case(batched[i].worst_case, sync[i].worst_case));
    EXPECT_EQ(batched[i].meets_deadline, sync[i].meets_deadline);
  }
}

TEST(FeasibilityServiceTest, ConcurrentBatchesMatchSync) {
  // Two racing callers share one service's caches; each must get its
  // full, request-ordered answer.
  const QueryBatch batch = table1_batch();
  const std::vector<FeasibilityVerdict> sync = answer_one_by_one(batch);
  FeasibilityService service;
  std::vector<FeasibilityVerdict> got[2];
  std::thread a([&] { got[0] = service.query_batch(batch); });
  std::thread b([&] { got[1] = service.query_batch(batch); });
  a.join();
  b.join();
  for (const std::vector<FeasibilityVerdict>& vs : got) {
    ASSERT_EQ(vs.size(), sync.size());
    for (std::size_t i = 0; i < sync.size(); ++i) {
      EXPECT_TRUE(same_worst_case(vs[i].worst_case, sync[i].worst_case)) << i;
      EXPECT_EQ(vs[i].meets_deadline, sync[i].meets_deadline) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Service: sim-tail fallback

TEST(FeasibilityServiceTest, SimTailDeterministicAcrossServiceThreads) {
  double reference = 0.0;
  for (int threads : {1, 2, 8}) {
    FeasibilityService::Options o;
    o.sim_threads = threads;
    FeasibilityService service(o);
    const FeasibilityQuery q = FeasibilityQuery::with_tail(
        StackConfig::testbed_grant_free(7), AccessMode::GrantFreeUl, Nanos{5'000'000},
        /*replications=*/3, /*packets=*/8, /*quantile=*/0.99);
    const FeasibilityVerdict v = service.query(q);
    ASSERT_TRUE(v.tail.has_value());
    EXPECT_GT(v.tail->reliability.delivered, 0u);
    if (threads == 1) {
      reference = v.tail->quantile_latency_us;
    } else {
      EXPECT_EQ(v.tail->quantile_latency_us, reference) << "threads=" << threads;
    }
  }
}

TEST(FeasibilityServiceTest, SimTailWarmHitIdenticalToColdMiss) {
  FeasibilityService service;
  const FeasibilityQuery q = FeasibilityQuery::with_tail(
      StackConfig::testbed_grant_free(7), AccessMode::GrantFreeUl, Nanos{5'000'000},
      /*replications=*/2, /*packets=*/8, /*quantile=*/0.99);
  const FeasibilityVerdict cold = service.query(q);
  ASSERT_TRUE(cold.tail.has_value());
  EXPECT_FALSE(cold.tail_cache_hit);
  const FeasibilityVerdict warm = service.query(q);
  ASSERT_TRUE(warm.tail.has_value());
  EXPECT_TRUE(warm.tail_cache_hit);
  EXPECT_EQ(cold.tail->quantile_latency_us, warm.tail->quantile_latency_us);
  EXPECT_EQ(cold.tail->reliability.fraction_within, warm.tail->reliability.fraction_within);
}

TEST(FeasibilityServiceTest, TailSamplesAnswerAnyQuantile) {
  // Same stack, different quantile: second query must hit the tail cache
  // (the cache stores the merged sample set, not a verdict).
  FeasibilityService service;
  FeasibilityQuery q = FeasibilityQuery::with_tail(StackConfig::testbed_grant_free(7),
                                                   AccessMode::GrantFreeUl, Nanos{5'000'000},
                                                   /*replications=*/2, /*packets=*/8,
                                                   /*quantile=*/0.99);
  (void)service.query(q);
  q.tail->quantile = 0.5;
  q.deadline = Nanos{4'000'000};
  const FeasibilityVerdict v = service.query(q);
  EXPECT_TRUE(v.tail_cache_hit);
  EXPECT_EQ(v.tail->quantile, 0.5);
}

// ---------------------------------------------------------------------------
// Service: LRU eviction never changes answers

TEST(FeasibilityServiceTest, EvictionNeverChangesAnswers) {
  FeasibilityService::Options tiny;
  tiny.analytic_cache_capacity = 2;  // 15 distinct keys fight over 2 slots
  FeasibilityService service(tiny);
  FeasibilityService unbounded;

  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  for (auto& c : table1_configs()) cfgs.emplace_back(std::move(c));
  for (int round = 0; round < 3; ++round) {
    for (const auto& cfg : cfgs) {
      for (AccessMode m :
           {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
        const FeasibilityQuery q = FeasibilityQuery::analytic(cfg, m);
        const FeasibilityVerdict thrashed = service.query(q);
        const FeasibilityVerdict cached = unbounded.query(q);
        EXPECT_TRUE(same_worst_case(thrashed.worst_case, cached.worst_case))
            << cfg->name() << " round " << round;
      }
    }
  }
  EXPECT_GT(service.stats().evictions, 0u);  // the tiny cache really thrashed
}

TEST(FeasibilityServiceTest, StatsCountQueries) {
  FeasibilityService service;
  const auto cfg = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  (void)service.query(FeasibilityQuery::analytic(cfg, AccessMode::GrantFreeUl));
  const FeasibilityService::Stats s = service.stats();
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.analytic_hits, 1u);
  EXPECT_EQ(s.analytic_misses, 1u);
  EXPECT_DOUBLE_EQ(s.analytic_hit_rate(), 0.5);
}

}  // namespace
}  // namespace u5g
