#include "sim/runner.hpp"

namespace u5g {

int resolve_threads(int requested) {
  return requested >= 1 ? requested : Crew::hardware_threads();
}

}  // namespace u5g
