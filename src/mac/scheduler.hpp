#pragma once
// gNB MAC scheduler (§3 "SCHE", §4's central interdependency point).
//
// Decisions happen once per granule (slot, or mini-slot under the Mini-Slot
// configuration). The scheduler must lead the air interface by enough time
// for PHY encoding and the radio bus — §4: "the MAC scheduler must be
// designed to account for the total processing time in subsequent layers
// and radio latency. Failure to do so may result in the radio not being
// ready for transmission, leading to a corrupted signal." That lead is
// `radio_lead` plus the explicit safety `margin`; the margin-vs-reliability
// trade is ablation A3.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "mac/grant.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

struct SchedulerParams {
  /// Time the gNB needs between a decision and the first sample on the air
  /// (DL PHY encode + bus transfer + DAC). With the §7 USB radio this is
  /// ~one slot; the idealised analysis uses zero.
  Nanos radio_lead{};
  /// Extra safety margin on top of radio_lead (§4's "include a margin").
  Nanos margin{};
  /// Minimum UE time between receiving a grant and transmitting (K2 floor).
  Nanos ue_min_prep{};
  /// Symbols per uplink data allocation.
  int ul_tx_symbols = 2;
  /// Transport block granted per UL grant.
  std::size_t ul_tb_bytes = 256;
  /// DL data allocation used for window-capacity sizing: a typical
  /// private-5G carrier (100 PRB at MCS 19).
  int dl_prbs = 100;
  int dl_mcs_index = 19;

  static SchedulerParams idealised() { return {}; }
};

/// A planned uplink grant: the control (DCI) window that announces it plus
/// the granted PUSCH window.
struct UlGrantPlan {
  TxWindow control;
  UlGrant grant;
};

/// Pure decision logic over a DuplexConfig: given "when is the scheduler
/// aware", produce "when does what go on the air". Multi-UE contention is
/// modelled by serialising allocations: each direction remembers the end of
/// its last handed-out window and never double-books.
class MacScheduler {
 public:
  MacScheduler(const DuplexConfig& duplex, SchedulerParams p) : duplex_(duplex), p_(p) {}

  /// Plan the response to an SR that the MAC became aware of at `sr_decoded`:
  /// decision at the next scheduler run, DCI at the next control opportunity
  /// that the radio can still make, PUSCH at the next uplink window the UE
  /// can make after decoding the DCI.
  [[nodiscard]] std::optional<UlGrantPlan> plan_ul_grant(UeId ue, Nanos sr_decoded);

  /// Plan a downlink transmission for data ready (at RLC) at `ready`:
  /// served in the first DL granule whose start the radio pipeline can meet.
  [[nodiscard]] std::optional<DlAssignment> plan_dl(UeId ue, Nanos ready, std::size_t tb_bytes);

  /// Bytes one DL window of `n_symbols` symbols can physically carry at the
  /// configured (dl_prbs, dl_mcs_index) allocation. The same few symbol
  /// counts recur for every served TB, so results are memoized — the TBS
  /// computation runs once per distinct window shape, not once per packet.
  [[nodiscard]] std::size_t dl_window_capacity_bytes(int n_symbols);

  [[nodiscard]] const SchedulerParams& params() const { return p_; }
  [[nodiscard]] Nanos total_lead() const { return p_.radio_lead + p_.margin; }

 private:
  static constexpr int kCapCacheSymbols = 64;  ///< covers multi-slot DL windows

  const DuplexConfig& duplex_;
  SchedulerParams p_;
  Nanos ul_booked_until_{};
  Nanos dl_booked_until_{};
  std::array<std::int64_t, kCapCacheSymbols + 1> dl_capacity_cache_{};  ///< 0 = unset
};

}  // namespace u5g
