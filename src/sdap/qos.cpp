#include "sdap/qos.hpp"

namespace u5g {

using namespace u5g::literals;

FiveQi urllc_five_qi() {
  return {85, ResourceType::DelayCriticalGBR, 21, 5_ms, 1e-5, "electricity distribution"};
}

}  // namespace u5g
