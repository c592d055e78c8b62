// SimResult — everything one simulation run produces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "energy/ledger.h"
#include "fault/fault.h"
#include "obs/epoch.h"
#include "obs/timing.h"
#include "sim/sampling.h"

namespace redhip {

struct SimResult {
  // Per-level events aggregated over all cores (index 0 = L1).
  std::vector<LevelEvents> levels;
  PredictorEvents predictor;  // summed over all prediction tables
  PrefetchEvents prefetch;
  std::uint64_t memory_accesses = 0;         // demand + prefetch fetches
  std::uint64_t demand_memory_accesses = 0;  // demand fetches only
  std::uint64_t memory_writebacks = 0;       // dirty LLC victims (if modeled)

  std::vector<Cycles> core_cycles;
  Cycles exec_cycles = 0;  // max over cores — the run's wall time
  // Sum over cores; the basis of the multiprogrammed performance metric
  // (average per-core speedup), which is robust to one unlucky core.
  Cycles total_core_cycles = 0;
  Cycles recal_stall_cycles = 0;
  std::uint64_t total_refs = 0;
  // References executed while the predictor was auto-disabled (§IV).
  std::uint64_t predictor_disabled_refs = 0;
  // Injected-fault and invariant-audit counters (all zero when both are
  // off; see src/fault and DESIGN.md "Fault model & recovery").
  FaultStats fault;
  double elapsed_seconds = 0.0;

  EnergyBreakdown energy;

  // Per-epoch metric series from the observability layer (src/obs); empty
  // unless HierarchyConfig::obs.enabled.  Deterministic — part of
  // stats_identical.
  EpochSeries epochs;

  // Statistical-sampling estimates (src/sim/sampling.h); enabled only for
  // sampled runs.  Deterministic — part of stats_identical.  For a sampled
  // run the plain counters above cover only warmed + measured references;
  // `sampling` carries the run-level point estimates and their 95%
  // confidence intervals.
  SamplingReport sampling;

  // Host-side throughput, filled by run_spec (not by the simulator): wall
  // time of trace construction + simulator construction + run, and the
  // simulated references per host second it implies.  Excluded from
  // stats_identical — two bit-identical runs never take identical wall time.
  double host_seconds = 0.0;
  double host_mrefs_per_s = 0.0;
  // Wall time spent inside the sampled warm phases (sample_warm_to), filled
  // by the simulator; 0 for exact runs.  Host-side like host_seconds —
  // excluded from stats_identical — but the number bench_speed reports as
  // warm-phase throughput (warmed_refs / warm_host_seconds).
  double warm_host_seconds = 0.0;
  // How long this run sat queued behind other cells on the executor pool
  // (run_matrix / run_sweep: submission to task start; 0 when the run never
  // went through a pool).  Host-side like host_seconds — excluded from
  // stats_identical and json_report.
  double queue_wait_seconds = 0.0;
  // Host-side phase timings from the observability layer; excluded from
  // stats_identical for the same reason.
  ObsTiming obs_timing;

  // Rate conventions for degenerate runs: a level with zero accesses has
  // hit rate 0.0 *and* miss rate 0.0 (nothing happened — neither "all hit"
  // nor "all missed"), and a run with zero L1 misses has off-chip fraction
  // 0.0.  An empty `levels` vector (default-constructed result) follows the
  // same rule instead of being undefined behavior.
  double hit_rate(std::size_t level) const {
    const auto& ev = levels.at(level);
    return ev.accesses == 0
               ? 0.0
               : static_cast<double>(ev.hits) /
                     static_cast<double>(ev.accesses);
  }
  double l1_miss_rate() const {
    if (levels.empty() || levels.front().accesses == 0) return 0.0;
    return 1.0 - hit_rate(0);
  }
  // Fraction of L1 misses that missed the whole hierarchy.
  double offchip_fraction() const {
    if (levels.empty()) return 0.0;
    const std::uint64_t m = levels.front().misses;
    return m == 0 ? 0.0
                  : static_cast<double>(demand_memory_accesses) /
                        static_cast<double>(m);
  }
};

// Bit-identical comparison of everything a run *simulated* — every counter,
// cycle count and priced joule, but not the host-side timing, which is a
// property of the machine the simulation ran on rather than of the run.
// This is the equality the determinism and checkpoint-restore tests assert.
bool stats_identical(const SimResult& a, const SimResult& b);

}  // namespace redhip
