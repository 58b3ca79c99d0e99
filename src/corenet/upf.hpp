#pragma once
// User Plane Function model (§3: "The UPF decapsulates the payload and
// forwards it to the destination over IP"), plus the §9 "URLLC in the 5G
// Core" discussion: the UPF adds forwarding latency, and a core shared with
// eMBB adds queuing. The model distinguishes a dedicated URLLC core from a
// shared one via a load-dependent queue.

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "corenet/gtpu.hpp"

namespace u5g {

struct UpfParams {
  Nanos forwarding_latency{15'000};  ///< decap + route + encap on the fast path
  Nanos backhaul_latency{50'000};    ///< gNB <-> UPF link one-way
  double embb_load = 0.0;            ///< 0 = dedicated URLLC core; >0 shared
  Nanos embb_queue_mean{200'000};    ///< queuing behind eMBB bursts when shared

  static UpfParams dedicated_urllc() { return {}; }
};

/// Stateless-per-packet UPF: tunnel table + latency draws.
class Upf {
 public:
  Upf(UpfParams p, Rng rng) : p_(p), rng_(rng) {}

  /// Register a tunnel endpoint id for a UE session.
  void bind_session(std::uint32_t teid, std::uint32_t ue_address) { sessions_[teid] = ue_address; }

  /// Uplink: strip the tunnel, return the processing+queuing latency to add,
  /// or nullopt when the packet is malformed / unknown TEID (dropped).
  std::optional<Nanos> process_uplink(ByteBuffer& packet) {
    const auto h = gtpu_decapsulate(packet);
    if (!h || !sessions_.contains(h->teid)) return std::nullopt;
    return latency_draw();
  }

  /// Downlink: wrap for the UE's tunnel; returns the latency to add.
  Nanos process_downlink(ByteBuffer& packet, std::uint32_t teid) {
    gtpu_encapsulate(packet, teid);
    return latency_draw();
  }

  [[nodiscard]] Nanos backhaul() const { return p_.backhaul_latency; }

 private:
  Nanos latency_draw() {
    Nanos t = p_.forwarding_latency;
    if (p_.embb_load > 0.0 && rng_.bernoulli(p_.embb_load)) {
      t += Nanos{static_cast<std::int64_t>(
          rng_.exponential(static_cast<double>(p_.embb_queue_mean.count())))};
    }
    return t;
  }

  UpfParams p_;
  Rng rng_;
  std::unordered_map<std::uint32_t, std::uint32_t> sessions_;
};

}  // namespace u5g
