#pragma once
// IQ sample accounting: how many baseband samples a slot/symbol occupies at
// a given numerology and bandwidth. Feeds the radio-bus model (Fig 5's
// x-axis is "number of submitted samples").

#include <cstdint>

#include "common/time.hpp"
#include "phy/numerology.hpp"

namespace u5g {

/// Baseband sampling configuration of the SDR front end.
struct SampleRate {
  std::int64_t samples_per_second = 23'040'000;  ///< USRP-style rate for 20 MHz @ 30 kHz SCS
  int bytes_per_sample = 4;                      ///< sc16: 2 × int16 I/Q

  [[nodiscard]] constexpr std::int64_t samples_in(Nanos d) const {
    return d.count() * samples_per_second / 1'000'000'000;
  }
};

}  // namespace u5g
