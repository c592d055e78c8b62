// sweep — declarative design-space exploration with a resumable result
// cache, runnable single-process or as a distributed farm.
//
//   sweep --axis workload=mcf,astar --axis table-size=2M,512K,64K
//         --cache-dir sweep-cache --scale 32 --refs 20000
//
// Axes (repeat --axis to add dimensions; the cross-product runs):
//   workload, scheme, inclusion, prefetch, table-size, recal-interval,
//   depth, llc-capacity, scale, refs, seed
//
// Every completed cell is persisted to --cache-dir keyed by its content
// address, so re-running (or resuming an interrupted sweep) simulates only
// the missing cells; --resume=0 ignores warm entries, --require-cache fails
// (exit 1) if anything had to simulate — the CI freshness check.  --report
// writes the JSON report (--csv switches the printed tables and the report
// to CSV).
//
// Farm mode (src/farm): the same sweep, spread over worker processes.
//   sweep --workers=4 ...            # coordinator + 4 loopback workers
//   sweep --serve=7077 --beacon=7078 ...        # accept remote workers too
//   sweep --connect=host:7077                   # be a worker
//   sweep --discover=7078                       # find a coordinator (UDP)
// Cells stream back over framed TCP and merge into the shared cache; a
// worker that dies mid-cell just forfeits its lease (--lease-timeout S,
// default 300) and the cell is re-served.  Results — the cache files and
// the JSON/CSV report rows — are byte-identical to a single-process run.
//
// Crash safety: --ckpt-dir checkpoints every simulating cell
// (--ckpt-interval N refs between saves); --warmup-refs W writes a shared
// warmup checkpoint at W aggregate refs that cells differing only in refs
// or engine restore instead of replaying the prefix; --cell-timeout S
// aborts a cell after S seconds wall (retried once, then reported and
// exit 1) — the clock starts when the cell begins executing, never at
// enqueue.  SIGTERM/SIGINT request a graceful stop (exit 75, completed
// cells all cached); a second signal re-arms the default disposition so a
// third kills the process outright.
#include <algorithm>
#include <cstdio>

#include "ckpt/checkpoint_io.h"
#include "common/cli.h"
#include "farm/coordinator.h"
#include "farm/worker.h"
#include "harness/report.h"
#include "sim/ckpt_control.h"
#include "sweep/aggregate.h"
#include "sweep/axes.h"
#include "sweep/sweep.h"

using namespace redhip;

namespace {

int worker_main(const CliOptions& cli) {
  WorkerOptions w;
  const std::string connect = cli.get("connect", "");
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    unsigned long port = 0;
    try {
      if (colon == std::string::npos || colon + 1 == connect.size()) throw 0;
      port = std::stoul(connect.substr(colon + 1));
      if (port == 0 || port > 65535) throw 0;
    } catch (...) {
      std::fprintf(stderr, "--connect wants host:port, got '%s'\n",
                   connect.c_str());
      return 2;
    }
    w.host = connect.substr(0, colon);
    w.port = static_cast<std::uint16_t>(port);
  } else {
    w.beacon_port =
        static_cast<std::uint16_t>(cli.get_uint64("discover", 0));
    if (w.beacon_port == 0) {
      std::fprintf(stderr, "worker mode wants --connect=host:port or "
                           "--discover=beacon-port\n");
      return 2;
    }
  }
  w.name = cli.get("worker-name", "");
  w.kill_after_cells = static_cast<int>(cli.get_int("worker-kill-after", -1));
  w.verbose = true;
  w.stop_flag = install_shutdown_flag();
  return run_worker(w);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  if (cli.has("connect") || cli.has("discover")) return worker_main(cli);

  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  std::vector<std::string> axis_specs = cli.get_all("axis");
  if (axis_specs.empty()) {
    // Default sweep: every workload under Base vs ReDHiP — the smallest
    // cross-product that exercises both the cache and the Pareto report.
    axis_specs = {"workload=all", "scheme=Base,ReDHiP"};
  }

  // The FarmJob is the single description of the sweep: the local executor
  // and every farm worker rebuild their SweepSpec from it through the same
  // build_sweep_spec path, so there is nothing to drift.
  FarmJob job;
  const RunSpec defaults;
  job.bench = to_string(defaults.bench);
  // The base machine runs ReDHiP: sweeping a predictor knob (table-size,
  // recal-interval) without a scheme axis would otherwise measure a machine
  // that never touches the knob.  A scheme axis overrides this per cell.
  job.scheme = static_cast<std::uint8_t>(Scheme::kRedhip);
  job.inclusion = static_cast<std::uint8_t>(defaults.inclusion);
  job.engine = static_cast<std::uint8_t>(opts.engine);
  job.scale = opts.scale;
  job.refs_per_core = opts.refs_per_core;
  job.prefetch = defaults.prefetch;
  job.seed = opts.seed;
  job.sampling = defaults.sampling;
  job.cell_timeout = opts.cell_timeout;
  for (BenchmarkId id : opts.benches) job.benches.push_back(to_string(id));
  job.axis_specs = axis_specs;

  SweepRunOptions ro;
  ro.cache_dir = opts.cache_dir;
  ro.resume = opts.resume;
  ro.jobs = opts.jobs;
  // Crash-safe cells: --ckpt-dir enables per-cell checkpoint/restore,
  // --ckpt-interval the periodic save, --warmup-refs the shared warmup
  // checkpoint (cells differing only in refs or engine start from it), and
  // --cell-timeout the per-cell watchdog (see SweepRunOptions).
  ro.ckpt_dir = opts.ckpt_dir;
  ro.ckpt_interval = opts.ckpt_interval;
  ro.warmup_refs = cli.get_uint64("warmup-refs", 0);
  ro.cell_timeout = opts.cell_timeout;

  const std::size_t workers = cli.get_uint64("workers", 0);
  const bool farm_mode = cli.has("serve") || workers > 0;
  SweepOutcome out;
  FarmReport farm_report;
  if (farm_mode) {
    if (!ro.ckpt_dir.empty()) {
      std::fprintf(stderr,
                   "sweep: --ckpt-dir is ignored in farm mode (crash "
                   "tolerance comes from cell re-leasing)\n");
    }
    FarmOptions farm;
    farm.port = static_cast<std::uint16_t>(cli.get_uint64("serve", 0));
    farm.beacon_port = static_cast<std::uint16_t>(cli.get_uint64("beacon", 0));
    farm.local_workers = static_cast<int>(workers);
    farm.lease_timeout = cli.get_double("lease-timeout", 300.0);
    farm.kill_first_worker_after =
        static_cast<int>(cli.get_int("worker-kill-after", -1));
    farm.stop_flag = install_shutdown_flag();
    try {
      out = run_sweep_farm(job, ro, farm, &farm_report);
    } catch (const GracefulShutdownRequest& e) {
      std::fprintf(stderr, "sweep: %s\n", e.what());
      return kGracefulShutdownExitCode;
    }
  } else {
    out = run_sweep(build_sweep_spec(job), ro);
  }

  std::printf("sweep: cells=%zu cache_hits=%zu simulated=%zu wall=%.2fs\n",
              out.stats.cells, out.stats.cache_hits, out.stats.simulated,
              out.stats.wall_seconds);
  if (farm_mode) {
    std::printf("farm: %.1f cells/hour, %zu re-lease%s, %zu duplicate "
                "result%s\n",
                farm_report.cells_per_hour, farm_report.releases,
                farm_report.releases == 1 ? "" : "s",
                farm_report.duplicate_results,
                farm_report.duplicate_results == 1 ? "" : "s");
    for (const WorkerProgress& w : farm_report.workers) {
      std::printf("farm:   %-20s %zu cell%s\n", w.name.c_str(), w.completed,
                  w.completed == 1 ? "" : "s");
    }
  }
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
