#pragma once
// StackConfig: the one aggregate configuration surface for a simulated
// end-to-end stack — duplexing, access mode, per-layer sub-configs
// (scheduler, SR, configured grants, processing/radio/PHY profiles, UPF,
// RLC/PDCP knobs, channel), and the TraceConfig controlling the
// observability subsystem. Benches, examples and tests all construct
// systems through the named presets below; there are no boolean-trap
// factories on this surface.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/hashing.hpp"
#include "corenet/upf.hpp"
#include "fault/scenario.hpp"
#include "mac/configured_grant.hpp"
#include "mac/ue_population.hpp"
#include "mac/sched_request.hpp"
#include "mac/scheduler.hpp"
#include "os/proc_time.hpp"
#include "phy/channel.hpp"
#include "phy/lbt.hpp"
#include "phy/phy_timing.hpp"
#include "radio/radio_head.hpp"
#include "tdd/duplex_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "trace/trace.hpp"

namespace u5g {

/// Full configuration of a run.
struct StackConfig {
  std::shared_ptr<const DuplexConfig> duplex;   ///< required
  bool grant_free = false;                      ///< UL access mode
  SrConfig sr{};                                ///< grant-based SR opportunities
  ConfiguredGrantConfig cg{};                   ///< grant-free occasions (UE 0; others staggered)
  SchedulerParams sched{};
  /// Number of attached UEs (§9 scalability). Grant-free occasions are
  /// staggered per UE; the gNB's processing times grow with load per the
  /// §7 observation via `gnb_load_factor_per_ue`.
  int num_ues = 1;
  double gnb_load_factor_per_ue = 0.08;  ///< gNB proc scale = 1 + f*(num_ues-1)
  /// Number of cells for the sharded scale-out engine (sim/sharded.hpp).
  /// A plain E2eSystem always models one cell; the engine builds one shard
  /// per cell from this config (cell 0 keeps `seed`, the rest get splitmix64
  /// stream seeds).
  int num_cells = 1;
  /// Inter-cell load coupling for the sharded engine: each in-flight packet
  /// at a neighbouring cell loads this cell's gNB like `coupling` extra
  /// attached UEs (through `gnb_load_factor_per_ue`). 0 = isolated cells.
  double intercell_load_coupling = 0.0;
  /// Background lite-UE population per cell (mac/ue_population.hpp):
  /// `population.background_ues` flat SoA rows driven by aggregate per-slot
  /// arrival counts, loading the gNB alongside the `num_ues` tracked full
  /// stacks. Default is disabled (0 background UEs) — every existing config,
  /// golden file and seed stream is untouched.
  PopulationConfig population{};
  ProcessingProfile gnb_proc = ProcessingProfile::gnb_i7();
  ProcessingProfile ue_proc = ProcessingProfile::ue_modem();
  RadioHeadParams gnb_radio = RadioHeadParams::usrp_b210_usb2();
  RadioHeadParams ue_radio = RadioHeadParams::pcie_sdr();  ///< modem: ASIC radio path
  PhyTimingParams phy = PhyTimingParams::software_i7();
  UpfParams upf = UpfParams::dedicated_urllc();
  double channel_loss = 0.0;      ///< per-transmission loss probability
  /// PDCP t-Reordering: bound on how long the receiver holds out-of-order
  /// PDUs waiting for a missing COUNT before flushing past the gap.
  Nanos pdcp_t_reordering{5'000'000};
  /// Optional FR2 line-of-sight blockage process (§1/§5's mmWave
  /// reliability problem): while blocked, transmissions are lost with the
  /// process's loss probability, on top of `channel_loss`.
  std::optional<MmWaveBlockage::Params> blockage{};
  Nanos harq_feedback_delay{};    ///< loss detection -> retransmission planning
  int harq_max_tx = 4;
  std::size_t payload_bytes = 64;   ///< ICMP-echo-sized
  std::size_t dl_tb_slack = 64;     ///< TB headroom over the PDU
  std::uint64_t seed = 1;
  /// Scenario-scripted fault injection (src/fault/): Gilbert–Elliott burst
  /// loss, OS-jitter storms, radio-bus stalls, UPF outages — each with its
  /// own SplitMix64 stream derived from `seed`, never touching the main
  /// simulation stream. Empty (the default) = no injector consulted; the
  /// i.i.d. `channel_loss` path above stays bit-identical to pre-fault
  /// builds. Configuring any BurstLoss scenario *replaces* `channel_loss`
  /// (i.i.d. is the degenerate single-state case, GilbertElliott::Params::iid).
  std::vector<FaultScenario> faults{};
  /// Observability: per-packet spans + metrics (off by default — one dead
  /// branch per hook on the warm path).
  TraceConfig trace{};
  /// Dynamic slot-format selection + URLLC preemption (tdd/dynamic_format.hpp).
  /// Disabled by default: no decision events are scheduled, no extra RNG
  /// draws happen, and every pre-dynamic golden stays byte-identical. The
  /// block participates in the canonical identity, so the feasibility cache
  /// can never serve a static-pattern verdict for a dynamic query.
  DynamicTddConfig dynamic_tdd{};
  /// NR-U Listen-Before-Talk channel access (phy/lbt.hpp). Disabled by
  /// default = licensed spectrum: no gate is constructed, no extra RNG
  /// stream exists, and every pre-LBT golden stays byte-identical. The
  /// block participates in the canonical identity, so the feasibility cache
  /// can never serve a licensed-band verdict for an NR-U query.
  LbtConfig lbt{};

  // -- Named presets ---------------------------------------------------------

  /// The §7 testbed with the SR-grant handshake: n78, µ1 (0.5 ms slots),
  /// DDDU, USB B210, per-slot SR, one-slot scheduler lead ("the transmission
  /// must always be delayed for one slot to give enough time to the RH").
  static StackConfig testbed_grant_based(std::uint64_t seed = 1);

  /// The §7 testbed with grant-free (configured-grant) uplink — Fig 6b.
  static StackConfig testbed_grant_free(std::uint64_t seed = 1);

  /// The §5 viable design: µ2 DM pattern, grant-free, PCIe radio, RT kernel,
  /// tight margin — the configuration the paper argues can meet URLLC.
  static StackConfig urllc_design(std::uint64_t seed = 1);

  /// Throw std::invalid_argument for a config no run can honour: a null
  /// `duplex`, `num_ues < 1`, `harq_max_tx < 1`, `num_cells < 1`, or
  /// `channel_loss` outside [0, 1] (NaN included). E2eSystem and
  /// ShardedEngine call it first; nothing is clamped.
  void validate() const;

  // -- Canonical identity ----------------------------------------------------
  // Two StackConfigs with the same canonical identity produce bitwise-
  // identical simulations: every knob participates by value, including the
  // `duplex` handle, which is compared by its observable direction map
  // (DuplexConfig::append_value_words) — never by pointer. This is what the
  // feasibility-query service (src/serve/) keys its replication cache on.

  /// Flatten every field into the canonical word stream (exact identity).
  void append_canonical_words(CanonicalWords& words) const;
};

}  // namespace u5g
