// Allocation pins for the analytic path: the worst-case sweep performs no
// heap allocation (it runs the timeline builders with step recording off),
// a warm feasibility-service hit allocates nothing (its key sits inline, the
// cache is a flat slab), and neither does a miss that evicts once the cache
// is full. This is its own binary because it links the counting global
// allocator (counting_alloc.cpp).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "core/feasibility.hpp"
#include "core/latency_model.hpp"
#include "serve/feasibility_service.hpp"
#include "tdd/common_config.hpp"
#include "counting_alloc.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

constexpr AccessMode kAllModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                    AccessMode::Downlink};

TEST(AnalyticAllocTest, WorstCaseSweepDoesNotAllocate) {
  LatencyModelParams slow;
  slow.sender_processing = 20_us;
  slow.receiver_processing = 30_us;
  slow.radio_tx = 10_us;
  slow.radio_rx = 15_us;
  slow.grant_decode = 25_us;
  slow.sr_decode = 12_us;
  std::vector<std::unique_ptr<DuplexConfig>> cfgs = table1_configs();
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
  for (const auto& cfg : cfgs) {
    for (AccessMode mode : kAllModes) {
      for (const LatencyModelParams& p : {LatencyModelParams{}, slow}) {
        for (int grid : {1, 4, 7}) {
          const std::size_t before = g_allocs.load();
          const WorstCaseResult wc = analyze_worst_case(*cfg, mode, p, grid);
          const std::size_t during = g_allocs.load() - before;
          EXPECT_TRUE(wc.feasible);
          EXPECT_EQ(0u, during) << cfg->name() << " " << to_string(mode) << " grid=" << grid;
        }
      }
    }
  }
}

TEST(AnalyticAllocTest, WarmServiceHitAllocatesAtMostTheKey) {
  // The key sits inline and the cache is flat, so "at most the key" is zero.
  FeasibilityService svc;
  for (auto& owned : table1_configs()) {
    const std::shared_ptr<const DuplexConfig> cfg = std::move(owned);
    for (AccessMode mode : kAllModes) {
      const FeasibilityQuery q = FeasibilityQuery::analytic(cfg, mode);
      const FeasibilityVerdict cold = svc.query(q);
      ASSERT_FALSE(cold.analytic_cache_hit);

      std::size_t before = g_allocs.load();
      const FeasibilityVerdict warm = svc.query(q);
      std::size_t during = g_allocs.load() - before;
      ASSERT_TRUE(warm.analytic_cache_hit);
      EXPECT_EQ(during, 0u) << "query hit: " << cfg->name() << " " << to_string(mode);

      // The offline wrappers' entry point views `cfg` without a control block.
      before = g_allocs.load();
      const WorstCaseResult wc = svc.worst_case(*cfg, mode);
      during = g_allocs.load() - before;
      EXPECT_EQ(wc.worst, warm.worst_case.worst);
      EXPECT_EQ(during, 0u) << "worst_case hit: " << cfg->name() << " " << to_string(mode);
    }
  }
}

TEST(AnalyticAllocTest, EvictingMissAllocatesNothing) {
  // A full four-entry cache: every Table 1 query below misses and evicts.
  // analyze_worst_case allocates nothing (WorstCaseSweepDoesNotAllocate),
  // so the whole query must not either.
  FeasibilityService::Options opt;
  opt.analytic_cache_capacity = 4;
  FeasibilityService svc(opt);
  const std::shared_ptr<const DuplexConfig> filler =
      std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1));
  for (int i = 0; i < 4; ++i) {
    LatencyModelParams p;
    p.sender_processing = Nanos{1'000 * (i + 1)};
    (void)svc.query(FeasibilityQuery::analytic(filler, AccessMode::Downlink, 1_ms, p));
  }
  ASSERT_EQ(svc.stats().evictions, 0u);

  std::vector<FeasibilityQuery> queries;
  for (auto& owned : table1_configs()) {
    const std::shared_ptr<const DuplexConfig> cfg = std::move(owned);
    for (AccessMode mode : kAllModes) queries.push_back(FeasibilityQuery::analytic(cfg, mode));
  }
  std::uint64_t evictions = svc.stats().evictions;
  for (const FeasibilityQuery& q : queries) {
    const std::size_t before = g_allocs.load();
    const FeasibilityVerdict v = svc.query(q);
    const std::size_t during = g_allocs.load() - before;
    ASSERT_FALSE(v.analytic_cache_hit);
    EXPECT_EQ(svc.stats().evictions, ++evictions) << q.duplex->name();
    EXPECT_EQ(during, 0u) << "evicting miss: " << q.duplex->name() << " " << to_string(q.mode);
  }
}

}  // namespace
}  // namespace u5g
