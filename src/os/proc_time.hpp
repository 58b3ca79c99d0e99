#pragma once
// Per-layer processing-time model, calibrated to the paper's Table 2.
//
// Table 2 (gNB, Intel i7, software stack):
//     layer   mean[µs]  std[µs]
//     SDAP      4.65     6.71
//     PDCP      8.29     8.99
//     RLC       4.12     8.37
//     MAC      55.21    16.31
//     PHY      41.55    10.83
// (RLC-q, the queuing time of 484.20 µs, is *not* a processing draw — it
// emerges from the per-slot scheduler and is measured, not sampled.)
//
// Each layer's time is a lognormal moment-matched to (mean, std): strictly
// positive, right-skewed — the empirically observed shape of software
// processing under OS noise (§6).

#include <stdexcept>
#include <string_view>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace u5g {

enum class Layer { SDAP, PDCP, RLC, MAC, PHY, APP };

[[nodiscard]] constexpr std::string_view to_string(Layer l) {
  switch (l) {
    case Layer::SDAP: return "SDAP";
    case Layer::PDCP: return "PDCP";
    case Layer::RLC: return "RLC";
    case Layer::MAC: return "MAC";
    case Layer::PHY: return "PHY";
    case Layer::APP: return "APP";
  }
  return "?";
}

/// Mean/std pair in microseconds for one layer.
struct LayerTime {
  double mean_us = 0.0;
  double std_us = 0.0;
};

/// Per-layer processing profile of one node.
struct ProcessingProfile {
  LayerTime sdap, pdcp, rlc, mac, phy, app;
  double scale = 1.0;  ///< multi-UE load factor hook (§7: "higher number of UEs
                       ///< might increase the processing times noticeably")

  [[nodiscard]] const LayerTime& layer(Layer l) const {
    switch (l) {
      case Layer::SDAP: return sdap;
      case Layer::PDCP: return pdcp;
      case Layer::RLC: return rlc;
      case Layer::MAC: return mac;
      case Layer::PHY: return phy;
      case Layer::APP: return app;
    }
    throw std::invalid_argument{"ProcessingProfile: unknown layer"};
  }

  /// The paper's Table 2 gNB (software stack on an Intel i7).
  static ProcessingProfile gnb_i7() {
    return {{4.65, 6.71}, {8.29, 8.99}, {4.12, 8.37}, {55.21, 16.31}, {41.55, 10.83},
            {2.0, 1.0},   1.0};
  }

  /// Commercial-modem UE: slower and noisier than the gNB (§7: "the UE needs
  /// more time for processing than gNB"). Roughly 3x the gNB figures.
  static ProcessingProfile ue_modem() {
    return {{14.0, 12.0}, {25.0, 18.0}, {12.0, 15.0}, {160.0, 45.0}, {120.0, 30.0},
            {10.0, 5.0},  1.0};
  }

  /// Idealised zero-cost profile for pure-protocol analyses.
  static ProcessingProfile zero() { return {}; }

  /// Hardware-accelerated stack: an order of magnitude below Table 2.
  static ProcessingProfile asic() {
    return {{0.5, 0.2}, {0.8, 0.3}, {0.5, 0.2}, {5.0, 1.5}, {4.0, 1.2}, {0.5, 0.2}, 1.0};
  }
};

/// Stateful sampler over a ProcessingProfile.
class ProcessingModel {
 public:
  ProcessingModel(ProcessingProfile profile, Rng rng) : p_(profile), rng_(rng) {
    for (Layer l : {Layer::SDAP, Layer::PDCP, Layer::RLC, Layer::MAC, Layer::PHY, Layer::APP}) {
      const LayerTime& t = p_.layer(l);
      fits_[index(l)] = t.mean_us > 0.0
                            ? LognormalParams::from_mean_std(t.mean_us, t.std_us)
                            : LognormalParams{};
      zero_[index(l)] = t.mean_us <= 0.0;
    }
  }

  /// One processing-time draw for `layer`, scaled by the load factor.
  [[nodiscard]] Nanos sample(Layer layer) {
    const std::size_t i = index(layer);
    if (zero_[i]) return Nanos::zero();
    return from_us(fits_[i].sample(rng_) * p_.scale);
  }

  void set_scale(double s) { p_.scale = s; }

 private:
  static std::size_t index(Layer l) { return static_cast<std::size_t>(l); }

  ProcessingProfile p_;
  Rng rng_;
  LognormalParams fits_[6];
  bool zero_[6]{};
};

}  // namespace u5g
