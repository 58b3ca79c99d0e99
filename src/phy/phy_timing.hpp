#pragma once
// PHY processing-time model: how long encode (DL preparation) takes on a
// software stack.
//
// §5's feasibility condition: "UL PHY decoding and DL preparation ... should
// be less than one slot", and §7/Table 2 measure PHY ≈ 41.6 µs ± 10.8 µs on
// an Intel i7. The model is affine in the LDPC code-block count (work scales
// with coded bits) plus multiplicative noise drawn by the caller's OS model.

#include "common/time.hpp"
#include "phy/transport_block.hpp"

namespace u5g {

/// Deterministic part of PHY processing time.
struct PhyTimingParams {
  Nanos encode_base{12'000};        ///< fixed cost: resource mapping, DMRS, FFT setup
  Nanos encode_per_cb{9'000};       ///< per code block (LDPC encode is cheap)

  /// Defaults: a one-code-block transport block (the ping-size payloads of
  /// §7) costs 21 µs before OS noise.
  static PhyTimingParams software_i7() { return {}; }
};

/// Size-dependent PHY costs. Noise is injected by ProcessingModel (os/).
class PhyTimingModel {
 public:
  explicit PhyTimingModel(PhyTimingParams p = PhyTimingParams::software_i7()) : p_(p) {}

  [[nodiscard]] Nanos encode_time(int tbs_bits) const {
    const auto seg = segment_transport_block(tbs_bits);
    return p_.encode_base + p_.encode_per_cb * seg.n_code_blocks;
  }

 private:
  PhyTimingParams p_;
};

}  // namespace u5g
