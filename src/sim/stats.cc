#include "sim/stats.h"

namespace redhip {

bool stats_identical(const SimResult& a, const SimResult& b) {
  return SimResult::fields(a) == SimResult::fields(b) &&
         a.sampling == b.sampling;
}

}  // namespace redhip
