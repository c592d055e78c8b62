// RunSpec / run_spec — one simulated configuration, end to end.
//
// This is the layer the benches and examples drive: name a workload, a
// scheme, an inclusion policy and a scale, get back a priced SimResult.
// `tweak` lets sweeps adjust any HierarchyConfig field (PT size,
// recalibration interval, memory latency, ...) before the run.
#pragma once

#include <atomic>
#include <functional>

#include "sim/simulator.h"
#include "trace/workloads.h"

namespace redhip {

struct RunSpec {
  BenchmarkId bench = BenchmarkId::kBwaves;
  Scheme scheme = Scheme::kBase;
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  std::uint32_t scale = 8;         // hierarchy + working-set divisor
  std::uint64_t refs_per_core = 1'000'000;
  bool prefetch = false;
  std::uint64_t seed = 42;
  // Statistical sampling (src/sim/sampling.h).  Off by default — every
  // reference simulated at full fidelity.  When enabled, run_spec validates
  // the plan against refs_per_core up front (throws INVALID_ARGUMENT on a
  // degenerate plan) and the result carries SimResult::sampling.
  SamplingPlan sampling;
  std::function<void(HierarchyConfig&)> tweak;

  // --- Crash-safe checkpoint/restore (src/ckpt) ------------------------------
  // None of these change simulated results: a restored run is bit-identical
  // to an uninterrupted one (stats, json_report, JSONL trace) —
  // tests/ckpt_restore_test and tests/ckpt_kill_test lock it in.
  //
  // Checkpoint file for this run ("" = checkpointing off).  Keyed by
  // (bench, scale, seed, config digest) — see ckpt_key() — so a stale or
  // foreign file at this path is rejected as DATA_LOSS and cold-started.
  std::string ckpt_path;
  // Periodic checkpoint every this many aggregate executed references
  // (0 = never), written at safe boundaries only.
  std::uint64_t ckpt_interval_refs = 0;
  // One-shot checkpoint when the aggregate count first reaches this value
  // (0 = never) — the sweep warmup-sharing hook.
  std::uint64_t ckpt_save_at_refs = 0;
  // Attempt to restore ckpt_path before running.  Missing file = cold
  // start; torn/corrupt/mismatched file = evict with a DATA_LOSS diagnostic
  // on stderr, then cold start.  Never a wrong result.
  bool ckpt_restore = false;
  // Graceful-shutdown flag (see install_shutdown_flag); when it is set the
  // run checkpoints at the next safe boundary and throws
  // GracefulShutdownRequest.  Not owned; may be null.
  const std::atomic<bool>* stop_flag = nullptr;
  // Wall-clock budget for this run, measured from run_spec entry (0 =
  // none).  Exceeding it throws DeadlineExceededError from a safe boundary;
  // the cell executor (run_sweep, under run_matrix) retries once, then
  // records Status(kDeadlineExceeded) for the cell.
  double deadline_seconds = 0.0;
};

// The fully-resolved machine `spec` would simulate: scaled geometry, then
// the spec's prefetch/seed fields, then the tweak hook.  run_spec builds
// exactly this config; the sweep result cache hashes it (together with the
// workload identity) as the content address of the run.
HierarchyConfig resolved_config(const RunSpec& spec);

// Build the machine and the per-core traces for `spec` and run it.  Fills
// SimResult::host_seconds / host_mrefs_per_s with the wall time of the
// whole run (trace + simulator construction + simulation).
SimResult run_spec(const RunSpec& spec);

// File a sampled run's shareable warm snapshot for window `w` lives in,
// derived from the run's main checkpoint path (foo.ckpt -> foo_w3.ckpt).
// Snapshots are written at window opens whose index has w+1 a power of two
// and restored by any run of the same (bench, scale, seed, config, plan)
// cell whose own window count exceeds w — total refs are deliberately NOT
// part of the address, that is the sharing.
std::string window_snapshot_path(const std::string& ckpt_path,
                                 std::uint64_t window);

// Derived paper metrics of scheme X against the Base run of the same
// workload.
struct Comparison {
  double speedup = 1.0;             // T_base / T_x  (1.08 = +8%)
  double dyn_energy_ratio = 1.0;    // E_dyn_x / E_dyn_base
  double total_energy_ratio = 1.0;  // E_total_x / E_total_base
  double perf_energy_metric = 1.0;  // speedup x (E_total_base / E_total_x)
};
Comparison compare(const SimResult& base, const SimResult& x);

}  // namespace redhip
