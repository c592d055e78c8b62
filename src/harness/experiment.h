// Experiment plumbing shared by the bench binaries: option parsing, a
// (benchmark x scheme-column) run matrix executed on a thread pool, and
// small aggregation helpers for the "average" row every paper figure has.
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
  std::vector<BenchmarkId> benches;
  // Observability (src/obs): when `trace_events` names a directory, every
  // matrix cell runs with obs enabled and writes its JSONL event trace to
  // `<trace_events>/<bench>-<column>.jsonl` (the directory is
  // created).  Empty = obs off (the default, and the speed-benchmark
  // configuration).
  std::string trace_events;
  std::uint64_t obs_epoch_refs = 100'000;
  // Sweep result cache (src/sweep): when `cache_dir` names a directory,
  // benches running through sweep_matrix/run_sweep persist every completed
  // cell there and load warm cells instead of re-simulating.  `resume`
  // (default on) controls whether existing entries are trusted; with
  // --resume=0 every cell re-simulates but still refreshes the cache.
  // Empty = no cache (the default — identical behaviour to run_matrix).
  std::string cache_dir;
  bool resume = true;
  // Crash-safe checkpointing (src/ckpt).  `ckpt_dir` names a directory for
  // per-cell checkpoint files; every matrix/sweep cell then checkpoints
  // every `ckpt_interval` aggregate references (0 = only on graceful
  // shutdown) and restores an existing valid checkpoint before running.
  // Empty = checkpointing off (the default).
  std::string ckpt_dir;
  std::uint64_t ckpt_interval = 0;
  // Per-cell wall-clock watchdog in seconds (0 = none): a cell that
  // exceeds it aborts with DEADLINE_EXCEEDED at the next safe boundary,
  // is retried once, and on a second timeout its cell reports
  // Status(kDeadlineExceeded) instead of a result.
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
  // legitimate).  The retired run-loop selector is rejected with
  // INVALID_ARGUMENT.
  static ExperimentOptions parse(const CliOptions& cli);
};

// Throws INVALID_ARGUMENT when `cli` carries a flag that no longer exists
// (the run-loop selector); called by ExperimentOptions::parse and by the
// examples that parse their own options.
void reject_retired_flags(const CliOptions& cli);

// `<bench>-<column>.jsonl` with the label sanitized to [A-Za-z0-9._-];
// shared by run_matrix and the tests that predict the per-cell trace file
// names.
std::string trace_file_name(BenchmarkId bench, const std::string& column);
// Same stem with a .ckpt suffix: the per-cell checkpoint file under
// ExperimentOptions::ckpt_dir.
std::string ckpt_file_name(BenchmarkId bench, const std::string& column);

// Bounded retry budget for matrix runs aborted by a transient injected
// fault (TransientFaultError under RecoveryPolicy::kAbortRetry); each
// attempt reseeds the fault stream, nothing else.
inline constexpr std::uint32_t kMaxTransientAttempts = 3;

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

// Relative wall-time estimate for one (benchmark, column) run.  Only the
// *ordering* matters — it drives longest-job-first submission in
// run_matrix (and in the sweep executor) so a heavyweight run doesn't
// start last and leave the pool idle at the tail.  Correctness never
// depends on it.
double estimated_run_cost(BenchmarkId bench, Scheme scheme, bool prefetch);
double estimated_run_cost(BenchmarkId bench, const SchemeColumn& column);
// Whole-run estimate: the per-reference cost above weighted by the run
// length and divided by the scale (scale shrinks the working set relative
// to the hierarchy, so scale-1 cells miss deepest and run longest).  This
// is the ordering run_matrix and the sweep executor submit by — sweeps mix
// scales and ref counts in one cell list, so both must participate or a
// scale-1 straggler lands last and runs alone.
double estimated_run_cost(const RunSpec& spec);

// Aggregate host-side timing for one run_matrix call.
struct MatrixStats {
  double wall_seconds = 0.0;      // end-to-end, submission to drain
  std::uint64_t total_refs = 0;   // sum of SimResult::total_refs
  double mrefs_per_s = 0.0;       // total_refs / wall_seconds / 1e6
};

// Run every (benchmark, column) pair; result[b][c] corresponds to
// opts.benches[b] under columns[c].  Runs execute concurrently on a thread
// pool, submitted longest-estimated-job first; each individual run is
// single-threaded and deterministic, so the matrix is reproducible
// regardless of pool size or submission order.  If `stats` is non-null it
// receives the matrix wall time and aggregate simulation throughput.
//
// With opts.cell_timeout set, a cell whose run exceeds the budget aborts
// with DeadlineExceededError at its next safe boundary and is retried once
// (timeouts are usually host contention, not the cell).  A second timeout
// records Status(kDeadlineExceeded) for the cell in `cell_status` (when
// provided; the SimResult slot stays default-constructed) or, when the
// caller passed no status sink, propagates as an exception — a silent
// zeroed cell is never produced.
std::vector<std::vector<SimResult>> run_matrix(
    const ExperimentOptions& opts, const std::vector<SchemeColumn>& columns,
    MatrixStats* stats = nullptr,
    std::vector<std::vector<Status>>* cell_status = nullptr);

// Arithmetic mean (the paper's "average" bars).
double mean(const std::vector<double>& v);

// Standard figure header: benchmark names in the paper's order + "average".
std::vector<std::string> benchmark_row_labels(const ExperimentOptions& opts);

}  // namespace redhip
