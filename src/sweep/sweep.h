// Declarative design-space sweeps.
//
// A SweepSpec names axes (workload, scheme, PT size, recalibration
// interval, hierarchy depth, ...); each axis value is a label plus a
// modifier applied to a RunSpec.  The executor expands the cross-product,
// keys every cell by its content address (sweep_cache_key over the fully
// resolved config + workload identity), serves warm cells from the
// ResultCache, and simulates only the missing ones — longest-estimated-job
// first on the shared ThreadPool, persisting each completed cell
// immediately so an interrupted sweep resumes having lost at most the
// in-flight cells.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sweep/result_cache.h"

namespace redhip {

struct AxisValue {
  std::string label;
  // Mutates the cell's RunSpec (set a field, chain a config tweak — see
  // chain_tweak).  Axes apply in declaration order, so a later axis may
  // read what an earlier one set (e.g. the bench chosen by the workload
  // axis).  Null = label-only value.
  std::function<void(RunSpec&)> apply;
};

struct SweepAxis {
  std::string name;
  std::vector<AxisValue> values;
};

struct SweepSpec {
  // Defaults for everything no axis overrides (scale, refs, seed).
  RunSpec base;
  std::vector<SweepAxis> axes;

  std::size_t cells() const;  // cross-product size (1 when axes is empty)
};

// Append `extra` to spec.tweak (runs after whatever is already chained).
void chain_tweak(RunSpec& spec, std::function<void(HierarchyConfig&)> extra);

struct SweepCell {
  RunSpec spec;                     // fully built (all axes applied)
  std::vector<std::size_t> coord;   // value index along each axis
  std::vector<std::string> labels;  // the matching axis-value labels
  std::uint64_t key = 0;            // sweep_cache_key(spec)
  bool from_cache = false;
  SimResult result;
  // OK for a completed cell; kDeadlineExceeded when the cell timed out
  // twice under SweepRunOptions::cell_timeout (result is then
  // default-constructed — never a silently zeroed row in a figure).
  Status status = Status::Ok();
};

struct SweepStats {
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t simulated = 0;
  double wall_seconds = 0.0;
};

struct SweepOutcome {
  std::vector<std::string> axis_names;
  std::vector<std::vector<std::string>> axis_labels;  // per axis, per value
  // Row-major over the axes, last axis fastest: for axes of sizes
  // (N0, N1, ...), cell (i0, i1, ...) lives at ((i0*N1)+i1)*N2 + ...
  std::vector<SweepCell> cells;
  SweepStats stats;

  std::size_t cell_index(const std::vector<std::size_t>& coord) const;
};

struct SweepRunOptions {
  std::string cache_dir;  // empty = no cache (every cell simulates)
  // false: existing entries are ignored (every cell re-simulates) but the
  // cache is still refreshed — the "measure again from scratch" switch.
  bool resume = true;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  // Crash-safe checkpointing (src/ckpt).  When `ckpt_dir` names a
  // directory, every simulated cell checkpoints there under
  // `<hex ckpt_key>.ckpt` and restores a valid existing file before
  // running.  The key excludes refs_per_core, so cells that differ only
  // in their ref count SHARE one file — that is the warmup-
  // sharing mechanism: with `warmup_refs` > 0 the first cell to execute
  // that many aggregate references writes a one-shot warmup checkpoint,
  // and every later same-key cell starts from it instead of replaying the
  // prefix.  A torn/corrupt/foreign file is evicted with a DATA_LOSS
  // diagnostic and the cell cold-starts; results are bit-identical either
  // way.  Empty = no checkpointing.
  std::string ckpt_dir;
  std::uint64_t ckpt_interval = 0;  // periodic, aggregate refs (0 = never)
  std::uint64_t warmup_refs = 0;    // one-shot shared warmup (0 = never)
  // Per-cell wall-clock budget in seconds (0 = none).  A cell exceeding it
  // aborts at its next safe boundary and is retried once; a second timeout
  // records Status(kDeadlineExceeded) in SweepCell::status and the sweep
  // carries on — one stuck cell cannot hang the whole sweep.
  double cell_timeout = 0.0;
};

// Expansion only (no simulation): cells with spec/coord/labels/key filled.
std::vector<SweepCell> expand(const SweepSpec& spec);

// When spec.base.stop_flag is set mid-sweep, running cells checkpoint at
// their next safe boundary (under opt.ckpt_dir), queued cells never start,
// and run_sweep throws GracefulShutdownRequest once the pool drains; every
// cell that completed first is already in the cache.
SweepOutcome run_sweep(const SweepSpec& spec, const SweepRunOptions& opt = {});

// run_matrix's (benchmark x scheme-column) contract on the sweep engine:
// same results (bit-identical — same RunSpecs, and every run is
// deterministic), plus the result cache when opts.cache_dir is set.  When
// opts.trace_events is set the cache is bypassed entirely (a cache hit
// would skip the simulation that writes the per-cell event trace).
std::vector<std::vector<SimResult>> sweep_matrix(
    const ExperimentOptions& opts, const std::vector<SchemeColumn>& columns,
    SweepStats* stats = nullptr);

}  // namespace redhip
