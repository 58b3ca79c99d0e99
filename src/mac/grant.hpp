#pragma once
// MAC grants and downlink assignments (the DCI payloads of §3's step ③).

#include <cstdint>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "phy/frame_structure.hpp"

namespace u5g {

/// Uplink grant: permission for one UE to transmit `tb_bytes` in the window
/// [tx_start, tx_end) on the air.
struct UlGrant {
  UeId ue{};
  Nanos tx_start{};
  Nanos tx_end{};
  std::size_t tb_bytes = 0;
  HarqId harq{};
  bool configured = false;  ///< true when this is a grant-free occasion
};

/// Downlink assignment: the gNB's decision to serve a UE in a DL window.
struct DlAssignment {
  UeId ue{};
  Nanos tx_start{};
  Nanos tx_end{};
  std::size_t tb_bytes = 0;
  HarqId harq{};
};

}  // namespace u5g
