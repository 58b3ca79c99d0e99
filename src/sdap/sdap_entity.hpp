#pragma once
// SDAP layer (TS 37.324): maps QoS flows onto data radio bearers and tags
// each downlink/uplink SDU with its QoS Flow Identifier in a 1-byte header.
// In the paper's ping journey this is the first 5G-specific layer an IP
// packet meets ("quality of service management", §3).

#include <cstdint>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sdap/qos.hpp"

namespace u5g {

/// SDAP data PDU header (downlink format): RDI/RQI flags + 6-bit QFI.
struct SdapHeader {
  std::uint8_t qfi = 0;  ///< QoS flow id, 6 bits

  [[nodiscard]] std::uint8_t encode() const { return qfi & 0x3F; }
  static SdapHeader decode(std::uint8_t b) { return {static_cast<std::uint8_t>(b & 0x3F)}; }
};

class SdapEntity {
 public:
  /// Bind QoS flow `qfi` (6 bits) to a bearer with the given 5QI. Every
  /// stack here maps its flows onto one bearer, so the entity keeps only
  /// which QFIs are configured.
  void configure_flow(std::uint8_t qfi, BearerId /*bearer*/, const FiveQi& /*qos*/) {
    if (qfi > 0x3F) throw std::invalid_argument{"SdapEntity: QFI is 6 bits"};
    configured_ |= std::uint64_t{1} << qfi;
  }

  /// Add the SDAP header for `qfi`. Throws if the flow is not configured.
  void encapsulate(ByteBuffer& sdu, std::uint8_t qfi) const {
    if (qfi > 0x3F || !(configured_ >> qfi & 1)) {
      throw std::invalid_argument{"SdapEntity: unconfigured QFI"};
    }
    const std::uint8_t h = SdapHeader{qfi}.encode();
    sdu.push_header({&h, 1});
  }

  /// Strip the SDAP header, returning the QFI.
  std::uint8_t decapsulate(ByteBuffer& pdu) const {
    const auto h = pdu.pop_header(1);
    return SdapHeader::decode(h[0]).qfi;
  }

 private:
  std::uint64_t configured_ = 0;  ///< bit q set: QFI q is configured
};

}  // namespace u5g
