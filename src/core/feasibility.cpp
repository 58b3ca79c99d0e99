#include "core/feasibility.hpp"

#include <stdexcept>

#include "serve/feasibility_service.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"

namespace u5g {

const FeasibilityCell& FeasibilityColumn::cell(AccessMode m) const {
  for (const FeasibilityCell& c : cells) {
    if (c.mode == m) return c;
  }
  throw std::out_of_range{"FeasibilityColumn: mode not evaluated"};
}

std::vector<std::unique_ptr<DuplexConfig>> table1_configs() {
  std::vector<std::unique_ptr<DuplexConfig>> cfgs;
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  cfgs.push_back(std::make_unique<MiniSlotConfig>(kMu2, 2));
  cfgs.push_back(std::make_unique<FddConfig>(kMu2));
  return cfgs;
}

Table1 build_table1(Nanos deadline, const LatencyModelParams& p) {
  constexpr AccessMode kModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                   AccessMode::Downlink};
  std::vector<std::shared_ptr<const DuplexConfig>> cfgs;
  for (auto& c : table1_configs()) cfgs.emplace_back(std::move(c));
  QueryBatch batch;
  for (const auto& cfg : cfgs) {
    for (AccessMode m : kModes) batch.push_back(FeasibilityQuery::analytic(cfg, m, deadline, p));
  }
  const std::vector<FeasibilityVerdict> verdicts = FeasibilityService::shared().query_batch(batch);

  Table1 t;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    FeasibilityColumn col;
    col.config_name = cfgs[i]->name();
    col.period_render = cfgs[i]->render_period();
    for (std::size_t j = 0; j < std::size(kModes); ++j) {
      const FeasibilityVerdict& v = verdicts[std::size(kModes) * i + j];
      col.cells.push_back({v.mode, v.worst_case, v.deadline, v.meets_deadline});
    }
    if (const auto* ms = dynamic_cast<const MiniSlotConfig*>(cfgs[i].get())) {
      col.standards_caveat = ms->violates_standard_recommendation();
    }
    t.columns.push_back(std::move(col));
  }
  return t;
}

}  // namespace u5g
