// The benchmark's workloads and the ways it runs their cells.
//
// A cell is one simulated configuration (a RunSpec).  Untraced passes run
// cells through the public run_spec / run_sweep entry points.  Traced
// passes, and the resume steps that must observe whether a checkpoint was
// restored, build each cell from the same public pieces run_spec uses
// (resolved_config, make_workload, workload_cpi_centi, the
// MulticoreSimulator constructor, set_sampling, save_checkpoint /
// load_checkpoint through CkptControl callbacks).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/run.h"
#include "sweep/sweep.h"
#include "tracer.h"

namespace perfbench {

enum class Kind { kExact, kSampled, kSweep };

struct Cell {
  std::string label;  // e.g. "mcf/redhip-excl"
  redhip::RunSpec spec;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kExact;
  std::vector<Cell> cells;
  // kSweep only: the spec the cells were expanded from, and the worker
  // count (min(4, nproc)).
  redhip::SweepSpec sweep;
  std::size_t jobs = 1;
};

// `tiny` shrinks every run length for the self-test.
Workload make_workload_def(const std::string& name, std::uint64_t seed,
                           bool tiny);

// Digest of everything a cell simulated.  Exact runs: per-level,
// predictor and prefetch events, memory traffic, core cycles and the
// priced energy.  Sampled runs: the estimates, their CIs, the per-window
// deltas and the skipped/warmed/measured tallies — not the cumulative
// counters, which cover warm-phase bookkeeping that may legitimately
// change, and never an echoed option such as the plan itself.
std::uint64_t outcome_digest(const redhip::SimResult& r);

// Cheap counter relations every correct exact run satisfies.  Returns an
// empty string when they hold.
std::string check_invariants(const redhip::SimResult& r,
                             const redhip::RunSpec& spec);

// How a self-built cell uses checkpoints.
struct CkptUse {
  std::string path;           // "" = none
  std::uint64_t save_at = 0;  // exact: one-shot save at this aggregate count
  bool save_windows = false;  // sampled: shareable window snapshots
  bool restore = false;       // restore before running (see run_built_cell)
};

struct BuiltRun {
  redhip::SimResult result;
  double wall_s = 0.0;
  bool restored = false;    // a restore was asked for and succeeded
  std::uint64_t restored_refs = 0;
  std::uint64_t saves = 0;
  std::uint64_t saved_bytes = 0;
};

// The checkpoint identity run_spec uses for `spec`.
std::uint64_t ckpt_identity(const redhip::RunSpec& spec);

// Build `spec` from public pieces and run it.  A non-null tracer wraps every
// core's trace and records spans.  Restore: exact cells load `path`;
// sampled cells load the deepest window snapshot that fits, as run_spec
// does.  A restore that finds nothing leaves `restored` false and runs
// cold.
BuiltRun run_built_cell(const redhip::RunSpec& spec, const CkptUse& ckpt,
                        Tracer* tracer);

// Set-up only: what run_spec does before run().  Returns its wall time.
double build_only(const redhip::RunSpec& spec);

}  // namespace perfbench
