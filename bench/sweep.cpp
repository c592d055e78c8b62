// sweep — declarative design-space exploration with a resumable result
// cache.
//
//   sweep --axis workload=mcf,astar --axis table-size=2M,512K,64K
//         --cache-dir sweep-cache --scale 32 --refs 20000
//
// Axes (repeat --axis to add dimensions; the cross-product runs):
//   workload, scheme, inclusion, prefetch, table-size, recal-interval,
//   depth, llc-capacity, sample, scale, refs, seed
// Without --axis the sweep is workload=all x scheme=Base,ReDHiP.  The base
// machine runs ReDHiP; --scale/--refs/--seed and the
// --sample-mode/--sample-period/--sample-window/--sample-warmup plan apply
// to every cell unless an axis overrides them.
//
// Every completed cell is persisted to --cache-dir keyed by its content
// address, so re-running (or resuming an interrupted sweep) simulates only
// the missing cells; --resume=0 ignores warm entries, --require-cache fails
// (exit 1) if anything had to simulate — the CI freshness check.  --report
// writes the JSON report (--csv switches the printed tables and the report
// to CSV).  --jobs N runs N cells side by side; the CSV report and the
// cache files are byte-identical for every N.
//
// Crash safety: --ckpt-dir checkpoints every simulating cell
// (--ckpt-interval N refs between saves); --warmup-refs W writes a shared
// warmup checkpoint at W aggregate refs that cells differing only in refs
// restore instead of replaying the prefix; --cell-timeout S
// aborts a cell after S seconds wall (retried once, then reported and
// exit 1) — the clock starts when the cell begins executing, never at
// enqueue.  SIGTERM/SIGINT request a graceful stop: running cells
// checkpoint under --ckpt-dir, queued cells never start, and the sweep
// exits 75 with every completed cell cached, so the same command resumes
// it.  A second signal re-arms the default disposition so a third kills
// the process outright.
#include <algorithm>
#include <cstdio>

#include "ckpt/checkpoint_io.h"
#include "common/cli.h"
#include "harness/report.h"
#include "sim/ckpt_control.h"
#include "sweep/aggregate.h"
#include "sweep/axes.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  // The multi-process worker modes were removed; fail closed instead of
  // quietly running the whole default sweep on this host.
  for (const char* retired :
       {"workers", "serve", "beacon", "connect", "discover", "lease-timeout",
        "worker-name", "worker-kill-after"}) {
    if (cli.has(retired)) {
      std::fprintf(stderr,
                   "sweep: --%s is no longer supported; use --jobs N to run "
                   "N cells in parallel on this host\n",
                   retired);
      return 2;
    }
  }

  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  std::vector<std::string> axis_specs = cli.get_all("axis");
  if (axis_specs.empty()) {
    // Default sweep: every workload under Base vs ReDHiP — the smallest
    // cross-product that exercises both the cache and the Pareto report.
    axis_specs = {"workload=all", "scheme=Base,ReDHiP"};
  }
  SweepSpec spec = make_sweep_spec(opts, axis_specs);
  spec.base.stop_flag = install_shutdown_flag();

  SweepRunOptions ro;
  ro.cache_dir = opts.cache_dir;
  ro.resume = opts.resume;
  ro.jobs = opts.jobs;
  // Crash-safe cells: --ckpt-dir enables per-cell checkpoint/restore,
  // --ckpt-interval the periodic save, --warmup-refs the shared warmup
  // checkpoint (cells differing only in refs start from it), and
  // --cell-timeout the per-cell watchdog (see SweepRunOptions).
  ro.ckpt_dir = opts.ckpt_dir;
  ro.ckpt_interval = opts.ckpt_interval;
  ro.warmup_refs = cli.get_uint64("warmup-refs", 0);
  ro.cell_timeout = opts.cell_timeout;

  SweepOutcome out;
  try {
    out = run_sweep(spec, ro);
  } catch (const GracefulShutdownRequest& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return kGracefulShutdownExitCode;
  }

  std::printf("sweep: cells=%zu cache_hits=%zu simulated=%zu wall=%.2fs\n",
              out.stats.cells, out.stats.cache_hits, out.stats.simulated,
              out.stats.wall_seconds);
  std::size_t timed_out = 0;
  for (const SweepCell& cell : out.cells) {
    if (cell.status.ok()) continue;
    ++timed_out;
    std::fprintf(stderr, "cell failed: %s\n", cell.status.to_string().c_str());
  }

  // Per-axis sensitivity: the headline metrics averaged over every other
  // axis — the quick read on which knob matters.
  for (std::size_t a = 0; a < out.axis_names.size(); ++a) {
    if (out.axis_labels[a].size() < 2) continue;
    const SensitivityTable dyn =
        sensitivity_table(out, a, metric_dynamic_energy_j);
    const SensitivityTable total =
        sensitivity_table(out, a, metric_total_energy_j);
    const SensitivityTable cycles = sensitivity_table(out, a, metric_exec_cycles);
    std::printf("\nsensitivity to %s (mean over all other axes, %zu cells "
                "per row)\n",
                dyn.axis.c_str(), dyn.rows.empty() ? 0 : dyn.rows[0].cells);
    TablePrinter t({dyn.axis, "dyn energy (J)", "total energy (J)",
                    "exec cycles"});
    for (std::size_t v = 0; v < dyn.rows.size(); ++v) {
      t.add_row({dyn.rows[v].label, fixed(dyn.rows[v].mean, 6),
                 fixed(total.rows[v].mean, 6),
                 fixed(cycles.rows[v].mean, 0)});
    }
    if (opts.csv) {
      t.print_csv();
    } else {
      t.print();
    }
  }

  // Pareto front over (speedup, total-energy ratio) when a scheme axis
  // includes Base to compare against.
  for (std::size_t a = 0; a < out.axis_names.size(); ++a) {
    if (out.axis_names[a] != "scheme") continue;
    const auto& labels = out.axis_labels[a];
    const auto base_it = std::find(labels.begin(), labels.end(), "Base");
    if (base_it == labels.end() || labels.size() < 2) break;
    const std::size_t base_index =
        static_cast<std::size_t>(base_it - labels.begin());
    const std::vector<ParetoPoint> points = pareto_vs_base(out, a, base_index);
    std::printf("\nPareto front over (speedup, total-energy ratio) vs Base\n");
    TablePrinter t({"cell", "speedup", "total energy", "pareto"});
    for (const ParetoPoint& p : points) {
      std::string label;
      for (const std::string& l : out.cells[p.cell_index].labels) {
        if (!label.empty()) label += '/';
        label += l;
      }
      t.add_row({label, pct_delta(p.speedup), pct(p.total_energy_ratio),
                 p.on_front ? "*" : ""});
    }
    if (opts.csv) {
      t.print_csv();
    } else {
      t.print();
    }
    break;
  }

  const std::string report = cli.get("report", "");
  if (!report.empty()) {
    const std::string body =
        opts.csv ? sweep_report_csv(out) : sweep_report_json(out);
    write_text_file(report, body).throw_if_error();
    std::printf("\nreport written to %s\n", report.c_str());
  }

  if (cli.get_bool("require-cache", false) && out.stats.simulated > 0) {
    std::fprintf(stderr,
                 "--require-cache: %zu of %zu cells had to simulate (cache "
                 "cold, stale, or corrupt)\n",
                 out.stats.simulated, out.stats.cells);
    return 1;
  }
  // Timed-out cells poison any aggregate computed over them; fail loudly.
  return timed_out > 0 ? 1 : 0;
}
