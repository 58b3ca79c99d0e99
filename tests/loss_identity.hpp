#pragma once
// The packet-loss identity every end-to-end accounting test holds a run to:
//
//   offered == delivered + harq_dropped + stranded + pdcp_discards + upf_drops
//
// Each offered packet ends in exactly one bucket, so silent loss cannot
// inflate reliability. Defined over one-packet-per-TB traffic, where a TB
// drop is a packet drop.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/e2e_system.hpp"

namespace u5g {

inline void expect_loss_identity(const E2eSystem& sys, std::uint64_t offered) {
  std::uint64_t delivered = 0;
  for (const PacketRecord& r : sys.records()) delivered += r.ok ? 1 : 0;
  EXPECT_EQ(delivered, sys.packets_delivered());
  EXPECT_EQ(offered, delivered + sys.harq_dropped_tbs() + sys.stranded_drops() +
                         sys.pdcp_discards() + sys.fault_counters().upf_drops)
      << "silent packet loss: some offered packet ended in no bucket";
}

}  // namespace u5g
