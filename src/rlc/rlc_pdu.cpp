#include "rlc/rlc_pdu.hpp"

#include <array>

namespace u5g {

void RlcHeader::encode(ByteBuffer& pdu) const {
  // byte0: SI(2) | R(2) | SN[11:8](4)   byte1: SN[7:0]; the reserved bits
  // are sent as zero and ignored on receipt.
  const auto b0 = static_cast<std::uint8_t>((static_cast<std::uint8_t>(si) << 6) |
                                            ((sn >> 8) & 0x0F));
  const auto b1 = static_cast<std::uint8_t>(sn & 0xFF);
  if (needs_so()) {
    std::array<std::uint8_t, 4> h{b0, b1, static_cast<std::uint8_t>(so >> 8),
                                  static_cast<std::uint8_t>(so & 0xFF)};
    pdu.push_header(h);
  } else {
    std::array<std::uint8_t, 2> h{b0, b1};
    pdu.push_header(h);
  }
}

std::optional<RlcHeader> RlcHeader::decode(ByteBuffer& pdu) {
  if (pdu.size() < 2) return std::nullopt;
  RlcHeader h;
  {
    const auto b = pdu.pop_header(2);
    h.si = static_cast<SegmentInfo>(b[0] >> 6);
    h.sn = static_cast<std::uint16_t>((static_cast<std::uint16_t>(b[0] & 0x0F) << 8) | b[1]);
  }
  if (h.needs_so()) {
    if (pdu.size() < 2) return std::nullopt;
    const auto b = pdu.pop_header(2);
    h.so = static_cast<std::uint16_t>((static_cast<std::uint16_t>(b[0]) << 8) | b[1]);
  }
  return h;
}

}  // namespace u5g
