#pragma once
// Design-space exploration (§5's conclusion generalised): enumerate the
// feasible URLLC design points across numerologies, duplex configurations
// and access modes, annotating each with the practical constraints the
// paper raises — band availability for private 5G, standards caveats,
// grant-free scalability cost, and the processing/radio budget left over
// ("the radio and processing latency should be less than one slot").

#include <memory>
#include <string>
#include <vector>

#include "core/latency_model.hpp"
#include "tdd/duplex_config.hpp"

namespace u5g {

/// One evaluated design point.
struct DesignPoint {
  std::string config_name;
  int mu = 0;
  AccessMode ul_mode = AccessMode::GrantFreeUl;
  Nanos worst_ul{};
  Nanos worst_dl{};
  bool meets_deadline = false;
  bool available_to_private_5g = true;  ///< FDD points are not (§2/§9)
  bool standards_caveat = false;        ///< mini-slot below recommended slot duration
  /// Remaining per-slot budget for processing+radio before an extra slot is
  /// missed: slot duration (the §5 threshold).
  Nanos processing_radio_budget{};
};

struct DesignSpaceOptions {
  Nanos deadline = kUrllcOneWayDeadline;
  LatencyModelParams model{};
  bool fr1_only = true;  ///< the paper's scope: FR2 fails reliability
  /// Retained for source compatibility: the sweep now submits one
  /// QueryBatch to `FeasibilityService::shared()`, answered on the calling
  /// thread; answers are pure values, identical at any worker count.
  int threads = 0;
};

/// Enumerate and evaluate every candidate design point.
[[nodiscard]] std::vector<DesignPoint> explore_design_space(const DesignSpaceOptions& opt = {});

/// Only the points that meet the deadline on both directions.
[[nodiscard]] std::vector<DesignPoint> viable_designs(const DesignSpaceOptions& opt = {});

}  // namespace u5g
