#include "obs/metrics.h"

namespace redhip {

MetricsRegistry::MetricsRegistry(std::uint32_t cores) : slots_(cores) {}

std::uint64_t MetricsRegistry::total(ObsCounter c) const {
  std::uint64_t sum = 0;
  for (const CoreSlot& s : slots_) {
    sum += s.counters[static_cast<std::uint32_t>(c)];
  }
  return sum;
}

std::vector<std::uint64_t> MetricsRegistry::latency_histogram() const {
  std::vector<std::uint64_t> out(kHistogramBuckets, 0);
  for (const CoreSlot& s : slots_) {
    for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
      out[b] += s.latency[b];
    }
  }
  return out;
}

}  // namespace redhip
