#pragma once
// 5G QoS model: 5QI characteristics (TS 23.501 Table 5.7.4-1). URLLC flows
// are the delay-critical GBR 5QIs (82-85) with packet delay budgets down to
// 5 ms end-to-end and loss targets to 1e-5 — the 99.999 % figure of the
// paper's abstract. A default FiveQi is 5QI 9 (buffered video, web).

#include <cstdint>
#include <string_view>

#include "common/time.hpp"

namespace u5g {

enum class ResourceType { NonGBR, GBR, DelayCriticalGBR };

/// One 5QI row: identifier, resource type, delay budget, error rate target.
struct FiveQi {
  int value = 9;
  ResourceType resource = ResourceType::NonGBR;
  int priority = 90;
  Nanos packet_delay_budget{300'000'000};
  double packet_error_rate = 1e-6;
  std::string_view example_service;
};

/// 5QI 85: the most aggressive URLLC row (electricity distribution /
/// industrial automation, 5 ms PDB, 1e-5 PER).
[[nodiscard]] FiveQi urllc_five_qi();

}  // namespace u5g
