// Standalone layer costs: the cell's own reference stream replayed against
// a TagArray with the cell's LLC geometry, a RedhipTable with the cell's PT
// configuration and a StridePrefetcher with the cell's prefetcher
// configuration.  Each operation kind is timed as one loop over the stream,
// so clock reads do not dominate nanosecond-scale calls.
#pragma once

#include <cstdint>

#include "harness/run.h"

namespace perfbench {

struct MicroTotals {
  double lookup_s = 0.0;
  std::uint64_t lookups = 0;
  double fill_s = 0.0;
  std::uint64_t fills = 0;
  double query_s = 0.0;
  std::uint64_t queries = 0;
  double pt_fill_s = 0.0;
  std::uint64_t pt_fills = 0;
  double recal_s = 0.0;
  std::uint64_t recals = 0;
  double observe_s = 0.0;
  std::uint64_t observes = 0;
};

// Replays `refs_per_core` references of every core of `spec`, interleaved
// in refill-batch chunks, and adds the timings to `acc`.
void measure_layers(const redhip::RunSpec& spec, std::uint64_t refs_per_core,
                    MicroTotals& acc);

}  // namespace perfbench
