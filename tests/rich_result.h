// A real result with every family of field populated (fault injection on,
// epoch sampling on) so a codec has something nontrivial to round-trip.
// Shared by the result-cache tests and the codec byte pins.
#pragma once

#include "harness/run.h"
#include "sim/stats.h"
#include "sweep/sweep.h"

namespace redhip {

inline SimResult rich_result() {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 32;
  spec.refs_per_core = 2'000;
  chain_tweak(spec, [](HierarchyConfig& c) {
    c.obs.enabled = true;
    c.obs.epoch_refs = 500;
    c.fault.enabled = true;
    c.fault.rate_per_mref = 5'000;
  });
  return run_spec(spec);
}

}  // namespace redhip
