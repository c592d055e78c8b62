// Experiment plumbing shared by the bench binaries: option parsing, the
// scheme columns of a (benchmark x scheme-column) figure matrix, and small
// aggregation helpers for the "average" row every paper figure has.  The
// matrix itself runs on the sweep executor: run_matrix in sweep/sweep.h.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/status.h"
#include "harness/run.h"

namespace redhip {

struct ExperimentOptions {
  std::uint32_t scale = 8;
  std::uint64_t refs_per_core = 1'000'000;
  std::uint64_t seed = 42;
  bool csv = false;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  // The largest --jobs accepted.  A pool never starts more workers than it
  // has cells (ThreadPool::run_all); the bound turns a typo into an error.
  static constexpr std::size_t kMaxJobs = 4096;
  std::vector<BenchmarkId> benches;
  // Observability (src/obs): when `trace_events` names a directory, every
  // matrix cell runs with obs enabled and writes its JSONL event trace to
  // `<trace_events>/<bench>-<column>.jsonl` (the directory is
  // created).  Empty = obs off (the default, and the speed-benchmark
  // configuration).
  std::string trace_events;
  std::uint64_t obs_epoch_refs = 100'000;
  // Sweep result cache (src/sweep): when `cache_dir` names a directory,
  // run_matrix persists every completed cell there and loads warm cells
  // instead of re-simulating (results are identical either way).  `resume`
  // (default on) controls whether existing entries are trusted; with
  // --resume=0 every cell re-simulates but still refreshes the cache.
  // Empty = no cache (the default).
  std::string cache_dir;
  bool resume = true;
  // Crash-safe checkpointing (src/ckpt).  `ckpt_dir` names a directory for
  // per-cell checkpoint files (`<hex ckpt_key>.ckpt`, see SweepRunOptions);
  // every matrix cell then checkpoints every `ckpt_interval` aggregate
  // references (0 = only on graceful shutdown) and restores an existing
  // valid checkpoint before running.
  // Empty = checkpointing off (the default).
  std::string ckpt_dir;
  std::uint64_t ckpt_interval = 0;
  // Per-cell wall-clock watchdog in seconds (0 = none): a cell that
  // exceeds it aborts with DEADLINE_EXCEEDED at the next safe boundary,
  // is retried once, and a second timeout fails run_matrix with
  // DEADLINE_EXCEEDED instead of leaving a zeroed cell.
  double cell_timeout = 0.0;
  // Statistical sampling applied to every matrix cell (see
  // sim/sampling.h); default off — every reference simulated exactly.
  SamplingPlan sampling;

  // Parses --scale/--refs/--seed/--csv/--jobs/--bench
  // plus --trace-events/--obs-epoch, --cache-dir/--resume,
  // --ckpt-dir/--ckpt-interval/--cell-timeout and
  // --sample-mode/--sample-period/--sample-window/--sample-warmup (or the
  // REDHIP_BENCH_* environment equivalents).  --bench limits the workload
  // list to one named benchmark.  refs and seed are parsed with full 64-bit
  // range (a seed is an arbitrary u64, and ref counts past 2^31 are
  // legitimate); --scale must lie in [1, 2^32-1] and --jobs in [0,
  // kMaxJobs].  A sign on an unsigned flag, a value out of its range and
  // the retired run-loop selector are rejected with INVALID_ARGUMENT.
  static ExperimentOptions parse(const CliOptions& cli);
};

// Throws INVALID_ARGUMENT when `cli` carries a flag that no longer exists
// (the run-loop selector); called by ExperimentOptions::parse and by the
// examples that parse their own options.
void reject_retired_flags(const CliOptions& cli);

// `<bench>-<column>.jsonl` with the label sanitized to [A-Za-z0-9._-]: the
// per-cell event trace run_matrix (sweep/sweep.h) writes under
// ExperimentOptions::trace_events, and the name tests predict it by.
std::string trace_file_name(BenchmarkId bench, const std::string& column);

// One column of a figure: a scheme variant applied to every workload.
struct SchemeColumn {
  std::string label;
  Scheme scheme = Scheme::kBase;
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  bool prefetch = false;
  // The default initializer keeps two-element aggregate inits like
  // {"Base", Scheme::kBase} clean under -Wmissing-field-initializers.
  std::function<void(HierarchyConfig&)> tweak = nullptr;
};

// Whole-run wall-time estimate: working set x run length / scale, scaled
// up for predictor schemes and the prefetcher (scale shrinks the working
// set relative to the hierarchy, so scale-1 cells miss deepest and run
// longest).  Only the *ordering* matters: the matrix and sweep executor
// (sweep/sweep.h) submit cells longest-estimated-job first by it, so a
// heavyweight cell never starts last and runs alone while the pool idles.
// Correctness never depends on it.
double estimated_run_cost(const RunSpec& spec);

// Arithmetic mean (the paper's "average" bars).
double mean(const std::vector<double>& v);

}  // namespace redhip
