#pragma once
// RLC PDU formats (TS 38.322, condensed).
//
// Segmentation info (SI) encodes whether a PDU carries a complete SDU or a
// first/middle/last segment; segments other than the first carry a 16-bit
// segment offset (SO). One deliberate simplification, documented here: the
// standard omits the SN from SI=Complete UMD PDUs; we always carry it — one
// byte of overhead in exchange for uniform tracing and reassembly logic.

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace u5g {

enum class SegmentInfo : std::uint8_t {
  Complete = 0b00,
  First = 0b01,
  Last = 0b10,
  Middle = 0b11,
};

/// Decoded RLC UM data PDU header (12-bit SN).
struct RlcHeader {
  SegmentInfo si = SegmentInfo::Complete;
  std::uint16_t sn = 0;        ///< 12-bit sequence number
  std::uint16_t so = 0;        ///< segment offset (bytes), Middle/Last only

  [[nodiscard]] std::size_t encoded_size() const {
    return needs_so() ? 4u : 2u;
  }
  [[nodiscard]] bool needs_so() const {
    return si == SegmentInfo::Middle || si == SegmentInfo::Last;
  }

  /// Prepend this header to `pdu`.
  void encode(ByteBuffer& pdu) const;

  /// Pop and decode a header; nullopt on truncation.
  static std::optional<RlcHeader> decode(ByteBuffer& pdu);
};

/// Largest RLC header this format can produce (worst case: with SO).
inline constexpr std::size_t kMaxRlcHeader = 4;

}  // namespace u5g
