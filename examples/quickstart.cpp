// quickstart — the 60-second tour of the library.
//
// Builds a scaled-down version of the paper's 8-core, 4-level machine, runs
// one memory-hungry workload (mcf) under the Base configuration and under
// ReDHiP, and prints the headline numbers: speedup, dynamic and total cache
// energy savings, and what the predictor did.
//
// With --trace-events the ReDHiP run also records a per-epoch metric
// series and a JSONL event trace (recalibrations, epoch confusion counts)
// that scripts/plot_epochs.py renders; see DESIGN.md "Observability".
//
//   ./quickstart [--scale 8] [--refs 200000] [--bench mcf]
//                [--trace-events redhip-events.jsonl] [--json report.json]
//                [--ckpt-file run.ckpt] [--ckpt-interval N] [--ckpt-restore]
//                [--sample-mode interval --sample-period N
//                 --sample-window M --sample-warmup W]
//
// --sample-mode=interval turns on SMARTS-style statistical sampling (see
// DESIGN.md "Statistical sampling"): the run fast-forwards between
// measurement windows and reports IPC / L1 hit rate / total energy as point
// estimates with 95% confidence intervals instead of simulating every
// reference.  Trust the CI only when the windows cover the workload's
// phases — at least ~10 windows, and a warmup long enough to rebuild the
// deep hierarchy at the window's position (~100k refs/core, the default).
//
// --json writes the ReDHiP run's full json_report to a file.  Runs are
// deterministic, so the document (and the event trace) compares equal byte
// for byte across repeated and restored runs.
//
// --ckpt-file makes the ReDHiP run crash-safe: SIGTERM/SIGINT checkpoint
// at the next safe boundary and exit with code 75; --ckpt-interval N also
// checkpoints every N aggregate references, so even kill -9 loses at most
// one interval.  Rerunning with --ckpt-restore resumes from the file and
// produces output bit-identical to an uninterrupted run — CI's
// crash-recovery job SIGKILLs this binary mid-run and cmp's the reports.
#include <algorithm>
#include <cstdio>
#include <string>

#include "ckpt/checkpoint_io.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/file_io.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "harness/report.h"
#include "harness/run.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  reject_retired_flags(opts);
  const std::uint32_t scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 8));
  const std::uint64_t refs =
      static_cast<std::uint64_t>(opts.get_int("refs", 200'000));
  const std::string bench_name = opts.get("bench", "mcf");
  const std::string trace_events = opts.get("trace-events", "");
  const std::string json_path = opts.get("json", "");
  const std::string ckpt_file = opts.get("ckpt-file", "");
  const std::uint64_t ckpt_interval = opts.get_uint64("ckpt-interval", 0);
  const bool ckpt_restore = opts.get_bool("ckpt-restore", false);
  const std::string sample_mode = opts.get("sample-mode", "off");
  SamplingPlan sampling;
  if (sample_mode == "interval") {
    sampling.mode = SampleMode::kInterval;
    // Defaults sized for paper-scale runs (>= 10M refs/core): the warmup
    // must rebuild the deep hierarchy's occupancy at the window's position,
    // which takes ~100k references — see DESIGN.md "Statistical sampling".
    sampling.period_refs = opts.get_uint64("sample-period", 1'000'000);
    sampling.window_refs = opts.get_uint64("sample-window", 10'000);
    sampling.warmup_refs = opts.get_uint64("sample-warmup", 100'000);
  } else {
    REDHIP_CHECK_MSG(sample_mode == "off",
                     "unknown --sample-mode: " + sample_mode);
  }

  const BenchmarkId bench = benchmark_from_name(bench_name).value();

  // Catch SIGTERM/SIGINT from the start: a stop request during the Base leg
  // (which never polls) must not kill the process with the default action —
  // it latches the flag, and the ReDHiP leg checkpoints at its first safe
  // boundary and exits 75.
  const std::atomic<bool>* stop_flag =
      ckpt_file.empty() ? nullptr : install_shutdown_flag();

  std::printf("ReDHiP quickstart: %s, 8 cores, 4-level hierarchy (1/%u "
              "scale), %llu refs/core\n\n",
              to_string(bench).c_str(), scale,
              static_cast<unsigned long long>(refs));

  RunSpec spec;
  spec.bench = bench;
  spec.scale = scale;
  spec.refs_per_core = refs;
  spec.sampling = sampling;  // both legs sampled, so the comparison is like
                             // for like

  spec.scheme = Scheme::kBase;
  const SimResult base = run_spec(spec);
  spec.scheme = Scheme::kRedhip;
  if (!trace_events.empty()) {
    spec.tweak = [&trace_events, &sampling, refs](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      // Eight epochs over the run, whatever --refs was.  A sampled run's
      // epochs follow its plan instead, one per period: the epoch length
      // joins the checkpoint key, and runs of one cell that differ only in
      // --refs must keep sharing their warm window snapshots.
      hc.obs.epoch_refs =
          sampling.enabled()
              ? sampling.period_refs * hc.cores
              : std::max<std::uint64_t>(1, refs * hc.cores / 8);
      hc.obs.trace_path = trace_events;
    };
  }
  // Crash safety covers the ReDHiP leg only: one checkpoint file holds one
  // configuration (the key embeds the config digest), and the ReDHiP run is
  // the long, instrumented one worth resuming.  A kill during the short
  // Base leg just replays it.
  SimResult redhip;
  if (!ckpt_file.empty()) {
    spec.ckpt_path = ckpt_file;
    spec.ckpt_interval_refs = ckpt_interval;
    spec.ckpt_restore = ckpt_restore;
    spec.stop_flag = stop_flag;
    try {
      redhip = run_spec(spec);
    } catch (const GracefulShutdownRequest& e) {
      std::printf("\n%s — rerun with --ckpt-restore to resume from %s\n",
                  e.what(), ckpt_file.c_str());
      return kGracefulShutdownExitCode;
    }
  } else {
    redhip = run_spec(spec);
  }
  const Comparison c = compare(base, redhip);

  std::printf("hierarchy hit rates under Base:   L1 %s  L2 %s  L3 %s  L4 %s\n",
              pct(base.hit_rate(0)).c_str(), pct(base.hit_rate(1)).c_str(),
              pct(base.hit_rate(2)).c_str(), pct(base.hit_rate(3)).c_str());
  std::printf("fraction of L1 misses going off-chip: %s\n\n",
              pct(base.offchip_fraction()).c_str());

  std::printf("ReDHiP vs Base\n");
  std::printf("  speedup:               %s\n", pct_delta(c.speedup).c_str());
  std::printf("  dynamic cache energy:  %s\n",
              pct_delta(c.dyn_energy_ratio).c_str());
  std::printf("  total cache energy:    %s\n",
              pct_delta(c.total_energy_ratio).c_str());
  std::printf("  perf-energy metric:    %s\n\n",
              fixed(c.perf_energy_metric, 3).c_str());

  const auto& pe = redhip.predictor;
  std::printf("predictor activity\n");
  std::printf("  lookups:        %llu\n",
              static_cast<unsigned long long>(pe.lookups));
  std::printf("  bypasses taken: %llu (all verified correct by the no-false-"
              "negative invariant)\n",
              static_cast<unsigned long long>(pe.predicted_absent));
  std::printf("  false positives:%llu\n",
              static_cast<unsigned long long>(pe.false_positives));
  std::printf("  recalibrations: %llu (stall %llu cycles total)\n",
              static_cast<unsigned long long>(pe.recalibrations),
              static_cast<unsigned long long>(redhip.recal_stall_cycles));
  if (redhip.sampling.enabled) {
    const SamplingReport& sr = redhip.sampling;
    std::printf("\nstatistical sampling (ReDHiP leg)\n");
    std::printf("  windows:        %llu (measured %llu of %llu refs, "
                "warmed %llu, skipped %llu)\n",
                static_cast<unsigned long long>(sr.windows),
                static_cast<unsigned long long>(sr.measured_refs),
                static_cast<unsigned long long>(redhip.total_refs),
                static_cast<unsigned long long>(sr.warmed_refs),
                static_cast<unsigned long long>(sr.skipped_refs));
    std::printf("  IPC:            %.4f +- %.4f (95%% CI)\n", sr.ipc.mean,
                sr.ipc.ci95_half);
    std::printf("  L1 hit rate:    %s +- %s (95%% CI)\n",
                pct(sr.l1_hit_rate.mean).c_str(),
                pct(sr.l1_hit_rate.ci95_half).c_str());
    std::printf("  total energy:   %.6f J +- %.6f (95%% CI, scaled to the "
                "full run)\n",
                sr.total_energy_j.mean, sr.total_energy_j.ci95_half);
  }
  if (!trace_events.empty()) {
    std::printf("\nwrote %zu-epoch event trace to %s\n"
                "  plot it: python3 scripts/plot_epochs.py %s\n",
                redhip.epochs.size(), trace_events.c_str(),
                trace_events.c_str());
  }
  if (!json_path.empty()) {
    // Atomic temp+rename: nothing ever reads a half-written report.
    write_file_atomic(json_path, to_json(redhip)).throw_if_error();
    std::printf("wrote json_report to %s\n", json_path.c_str());
  }
  return 0;
}
