#pragma once
// The paper's §5 analysis as an executable model: closed-form transmission
// timelines for any duplex configuration and access mode, plus worst-case
// search over arrival offsets.
//
// Semantics (derived in §3-§5 and Fig 4):
//  * UL (grant-free): data may start at any symbol boundary inside an
//    uplink-capable region with enough contiguous symbols left; completion
//    is the end of the transmission.
//  * UL (grant-based): SR at the next SR opportunity (any UL symbol,
//    footnote 2) -> gNB scheduling at the next per-granule scheduler run ->
//    grant in the next DL control region -> data at the next UL window the
//    UE can make.
//  * DL: the slot-granular scheduler serves data in the first granule whose
//    start is at or after readiness ("a packet may arrive at the RLC queue
//    just after MAC scheduling [and] has to wait until it is scheduled in
//    the next slot", §5); completion is the end of that granule's DL run —
//    the worst position of the data within the slot.
//
// Each timeline step is tagged with the paper's three latency categories
// (protocol / processing / radio, §4) so the Fig 3 decomposition falls out.

#include <optional>
#include <string>
#include <vector>

#include "common/taxonomy.hpp"
#include "common/time.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

enum class AccessMode { GrantBasedUl, GrantFreeUl, Downlink };

[[nodiscard]] constexpr const char* to_string(AccessMode m) {
  switch (m) {
    case AccessMode::GrantBasedUl: return "Grant-Based UL";
    case AccessMode::GrantFreeUl: return "Grant-Free UL";
    case AccessMode::Downlink: return "DL";
  }
  return "?";
}

/// Knobs of the analytic model. All-zero processing/radio with 1-2 symbol
/// transmissions reproduces the idealised Table 1 analysis; non-zero values
/// let the same engine express §4's bottleneck interdependencies.
struct LatencyModelParams {
  int data_tx_symbols = 2;   ///< symbols one data transmission occupies
  int sr_symbols = 1;        ///< SR length (PUCCH format 0)
  Nanos sender_processing{};    ///< APP->PHY stack traversal before the air
  Nanos receiver_processing{};  ///< PHY->APP traversal after the air
  Nanos grant_decode{};         ///< UE time from DCI end to being ready (K2 floor)
  Nanos sr_decode{};            ///< gNB time from SR end until scheduler aware
  Nanos radio_tx{};             ///< sender radio latency (bus + DAC), per §4
  Nanos radio_rx{};             ///< receiver radio latency (ADC + bus)

  static LatencyModelParams idealised() { return {}; }
};

/// One labelled interval of a transmission timeline.
struct TimelineStep {
  std::string label;
  Nanos start;
  Nanos end;
  LatencyCategory category;
  [[nodiscard]] Nanos duration() const { return end - start; }
};

/// Full decomposition of one transmission.
struct Timeline {
  Nanos arrival{};
  Nanos completion{};
  std::vector<TimelineStep> steps;
  bool feasible = true;  ///< false when no opportunity exists (degenerate config)

  [[nodiscard]] Nanos latency() const { return completion - arrival; }
  /// Sum of step durations in one category (Fig 3's breakdown).
  [[nodiscard]] Nanos category_total(LatencyCategory c) const;
  /// Human-readable rendering of the step list.
  [[nodiscard]] std::string render() const;
};

/// Trace one transmission arriving at absolute time `arrival`.
[[nodiscard]] Timeline trace_transmission(const DuplexConfig& cfg, AccessMode mode, Nanos arrival,
                                          const LatencyModelParams& p = {});

/// Worst/best case over arrival offsets across one configuration period.
struct WorstCaseResult {
  Nanos worst{};
  Nanos best{Nanos::max()};
  Nanos mean{};
  Nanos worst_arrival_offset{};  ///< offset within the period attaining worst
  bool feasible = true;
};

/// Finest accepted worst-case grid: at most one interior probe per ns of
/// the shortest symbol (µ6), so probe offsets never decrease along the sweep.
inline constexpr int kMaxGridPerSymbol = 1000;

/// Sweeps arrivals over one full period: every symbol boundary, the instant
/// just after it (+1 ns, the paper's "just after a DL slot starts" worst
/// case), and `grid_per_symbol - 1` interior points, taken in arrival order.
/// The result is exactly that of running `trace_transmission` on every
/// probe, but the timeline is built only at the edges of constant segments:
/// every step of every mode is "first opportunity at or after t + d", so
/// the completion is a non-decreasing step function of the arrival, and a
/// run of probes with equal completion is accounted in O(1) (worst from its
/// first probe, best from its last, the sum in closed form). The timelines
/// run with step recording off, so the sweep performs no heap allocation.
/// Throws std::invalid_argument unless 1 <= grid_per_symbol <=
/// kMaxGridPerSymbol.
[[nodiscard]] WorstCaseResult analyze_worst_case(const DuplexConfig& cfg, AccessMode mode,
                                                 const LatencyModelParams& p = {},
                                                 int grid_per_symbol = 4);

/// The URLLC one-way deadline the paper evaluates against (abstract, §1).
inline constexpr Nanos kUrllcOneWayDeadline{500'000};

}  // namespace u5g
