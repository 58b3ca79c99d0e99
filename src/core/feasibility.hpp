#pragma once
// §5's feasibility analysis: which configurations meet the URLLC one-way
// deadline, for each access mode — the machinery behind Table 1.

#include <memory>
#include <string>
#include <vector>

#include "core/latency_model.hpp"
#include "tdd/duplex_config.hpp"

namespace u5g {

/// Verdict for one (configuration, access mode) cell of Table 1.
struct FeasibilityCell {
  AccessMode mode{};
  WorstCaseResult worst_case;
  Nanos deadline{};
  bool meets_deadline = false;
};

/// One column of Table 1: a configuration with its three access-mode cells.
struct FeasibilityColumn {
  std::string config_name;
  std::string period_render;  ///< machine-readable Fig 1-style slot map
  std::vector<FeasibilityCell> cells;
  bool standards_caveat = false;  ///< e.g. mini-slot below the recommended slot duration

  [[nodiscard]] const FeasibilityCell& cell(AccessMode m) const;
};

/// The five §5 candidates at numerology µ2 (the only FR1 numerology that can
/// meet URLLC, per the paper's PHY analysis): DU, DM, MU, Mini-slot, FDD,
/// each evaluated against `deadline` for all three access modes — Table 1
/// end to end. The table's 15 cells go to `FeasibilityService::shared()` as
/// one `query_batch` (serve/feasibility_service.hpp), so every cell is the
/// service's answer; cells are in GrantBasedUl, GrantFreeUl, Downlink order.
struct Table1 {
  std::vector<FeasibilityColumn> columns;
};
[[nodiscard]] Table1 build_table1(Nanos deadline = kUrllcOneWayDeadline,
                                  const LatencyModelParams& p = {});

/// The five candidate configurations themselves (for tests/benches that need
/// the config objects rather than the verdicts).
[[nodiscard]] std::vector<std::unique_ptr<DuplexConfig>> table1_configs();

}  // namespace u5g
