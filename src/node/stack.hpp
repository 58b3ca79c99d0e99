#pragma once
// Node stack compositions: everything a gNB or UE owns, wired together.
// The end-to-end system (core/e2e_system) drives these on the simulated
// clock; the entities here do the actual protocol work (headers, ciphering,
// segmentation) so the integration path exercises every substrate.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "os/proc_time.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "phy/phy_timing.hpp"
#include "radio/radio_head.hpp"
#include "rlc/rlc_entity.hpp"
#include "sdap/sdap_entity.hpp"

namespace u5g {

/// Per-direction bearer chain: PDCP + RLC transmit and receive halves.
/// The TX half lives on the sender of that direction, the RX half on the
/// receiver; both ends construct the same BearerChain shape (keyed by the
/// same security context) and use the half that applies.
struct BearerChain {
  explicit BearerChain(PdcpConfig pdcp_cfg = {})
      : pdcp_tx(pdcp_cfg), pdcp_rx(pdcp_cfg), rlc_tx(RlcMode::UM), rlc_rx(RlcMode::UM) {}

  PdcpTx pdcp_tx;
  PdcpRx pdcp_rx;
  RlcTx rlc_tx;
  RlcRx rlc_rx;
};

/// The PDCP configuration both ends of a UE's bearer must share.
[[nodiscard]] inline PdcpConfig bearer_pdcp_config(std::uint32_t ue, bool downlink) {
  return PdcpConfig{.sn_bits = 12,
                    .integrity_enabled = true,
                    .security = CipherContext{.key = 0x5deece66d2b4a1c9ULL ^ ue,
                                              .bearer = ue,
                                              .downlink = downlink}};
}

/// The compute-and-radio side of a node (shared across its bearers).
struct NodeCompute {
  NodeCompute(ProcessingProfile proc_profile, RadioHeadParams radio_params,
              PhyTimingParams phy_params, Rng rng)
      : proc(proc_profile, rng.fork()), radio(radio_params, rng.fork()), phy(phy_params) {}

  ProcessingModel proc;
  RadioHead radio;
  PhyTimingModel phy;
  SdapEntity sdap;
};

/// One node's full stack state: compute plus its bearer chains. A UE has
/// exactly one UL and one DL chain; a gNB constructs one pair per attached
/// UE (`peer_count`).
struct NodeStack {
  /// `first_peer_id` keys the security contexts: a gNB builds chains for
  /// UE ids [first_peer_id, first_peer_id + peer_count); a UE builds its
  /// single pair with its own id so both ends agree.
  NodeStack(ProcessingProfile proc_profile, RadioHeadParams radio_params,
            PhyTimingParams phy_params, Rng rng, int peer_count = 1,
            std::uint32_t first_peer_id = 1)
      : compute(proc_profile, radio_params, phy_params, rng.fork()) {
    uplink_chains.reserve(static_cast<std::size_t>(peer_count));
    downlink_chains.reserve(static_cast<std::size_t>(peer_count));
    for (int ue = 0; ue < peer_count; ++ue) {
      const auto id = first_peer_id + static_cast<std::uint32_t>(ue);
      uplink_chains.emplace_back(bearer_pdcp_config(id, false));
      downlink_chains.emplace_back(bearer_pdcp_config(id, true));
    }
    // Warm the calling thread's buffer pool: typical URLLC payloads plus
    // their header stacks land in the 512-byte class, transport blocks in
    // the 1-2 KiB classes, so even the first packet through these chains
    // acquires recycled blocks rather than hitting the heap.
    BufferPool::local().prefill(512, static_cast<std::size_t>(peer_count) * 2);
    BufferPool::local().prefill(2048, 2);
  }

  [[nodiscard]] BearerChain& uplink(std::size_t peer = 0) { return uplink_chains[peer]; }
  [[nodiscard]] BearerChain& downlink(std::size_t peer = 0) { return downlink_chains[peer]; }

  NodeCompute compute;
  std::vector<BearerChain> uplink_chains;    ///< UE transmits, gNB receives
  std::vector<BearerChain> downlink_chains;  ///< gNB transmits, UE receives
};

}  // namespace u5g
