#include "harness/run.h"

#include <chrono>
#include <cstdio>

#include "ckpt/checkpoint_io.h"
#include "common/check.h"
#include "sim/config_digest.h"

namespace redhip {

std::string window_snapshot_path(const std::string& ckpt_path,
                                 std::uint64_t window) {
  // foo.ckpt -> foo_w<idx>.ckpt; a path without the suffix gets _w<idx>
  // appended (still unambiguous, still evictable as a unit).
  const std::string suffix = ".ckpt";
  const std::string tag = "_w" + std::to_string(window);
  if (ckpt_path.size() > suffix.size() &&
      ckpt_path.compare(ckpt_path.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return ckpt_path.substr(0, ckpt_path.size() - suffix.size()) + tag +
           suffix;
  }
  return ckpt_path + tag;
}

HierarchyConfig resolved_config(const RunSpec& spec) {
  HierarchyConfig config =
      HierarchyConfig::scaled(spec.scale, spec.scheme, spec.inclusion);
  config.prefetch = spec.prefetch;
  config.seed = spec.seed;
  if (spec.tweak) spec.tweak(config);
  return config;
}

SimResult run_spec(const RunSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  HierarchyConfig config = resolved_config(spec);
  // Reject degenerate sampling plans before any machinery is built: a plan
  // that cannot yield a confidence interval is a caller error, never a
  // silently-NaN report.
  spec.sampling.validate(spec.refs_per_core).throw_if_error();

  const auto build_sim = [&]() {
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      traces.push_back(make_workload(spec.bench, c, spec.scale, spec.seed));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
    auto s = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                  std::move(cpis));
    // Inside build_sim so a DATA_LOSS rebuild is also a *sampled* rebuild:
    // the plan is part of the machine identity for this run.
    s->set_sampling(spec.sampling);
    return s;
  };
  std::unique_ptr<MulticoreSimulator> sim = build_sim();

  const bool ckpt_on = !spec.ckpt_path.empty() ||
                       spec.stop_flag != nullptr || spec.deadline_seconds > 0;
  CkptControl ctl;  // must outlive the run below
  if (ckpt_on) {
    // The sampling plan joins the key: a sampled run's checkpoint encodes
    // window progress that is meaningless under any other plan (or under
    // exact execution), so such files must never cross-restore.
    const std::uint64_t key =
        ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                 config_digest(config) ^ sampling_digest(spec.sampling));
    ctl.interval_refs = spec.ckpt_interval_refs;
    ctl.save_at_refs = spec.ckpt_save_at_refs;
    ctl.stop_flag = spec.stop_flag;
    if (spec.deadline_seconds > 0) {
      ctl.has_deadline = true;
      ctl.deadline = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     spec.deadline_seconds));
    }
    if (!spec.ckpt_path.empty()) {
      ctl.save = [path = spec.ckpt_path, key](MulticoreSimulator& s) {
        const Status st = save_checkpoint(s, path, key);
        // A failed save never corrupts the run; it only loses restart
        // coverage, so it warns instead of aborting a healthy simulation.
        if (!st.ok()) {
          std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
        }
      };
      if (spec.sampling.enabled()) {
        // Shareable warm snapshots (see CkptControl::save_window): the
        // prefix up to a window open is independent of the run's total
        // reference count, so these files are content-addressed by (key,
        // window index) only and cross-restore between cells that differ
        // solely in that count.
        ctl.save_window = [path = spec.ckpt_path,
                           key](MulticoreSimulator& s, std::uint64_t w) {
          const Status st =
              save_checkpoint(s, window_snapshot_path(path, w), key);
          if (!st.ok()) {
            std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
          }
        };
      }
    }
    if (!spec.ckpt_path.empty() && spec.ckpt_restore) {
      if (!sim->ckpt_supported()) {
        std::fprintf(stderr,
                     "warning: checkpoint restore skipped: this "
                     "configuration's tag-array state is not "
                     "self-contained\n");
      } else {
        // Capture must be live before the restore replays the JSONL prefix.
        sim->set_ckpt_control(&ctl);
        const Status st = load_checkpoint(spec.ckpt_path, key, *sim);
        if (st.code() == StatusCode::kDataLoss) {
          // Torn, corrupt, or foreign: evict and cold-start — a wrong
          // result is never an option, a lost warmup merely costs time.
          std::fprintf(stderr, "warning: %s; evicting and cold-starting\n",
                       st.to_string().c_str());
          evict_checkpoint(spec.ckpt_path);
          // Destroy the tainted simulator *before* building its
          // replacement: its obs writer may hold the same trace file open
          // (the restore replays the captured JSONL prefix into it), and a
          // late flush would land inside the new run's freshly truncated
          // file.
          sim.reset();
          sim = build_sim();
        } else if (st.ok() &&
                   sim->ckpt_refs_done() >
                       spec.refs_per_core * config.cores) {
          // Valid checkpoint, but past this run's end: a prefix of a longer
          // run is useless here.  Keep the file (it is still valid for the
          // run that wrote it) and cold-start.
          std::fprintf(stderr,
                       "warning: checkpoint %s is ahead of this run "
                       "(ignoring it)\n",
                       spec.ckpt_path.c_str());
          sim.reset();  // same teardown-before-rebuild rule as above
          sim = build_sim();
        }
        // kNotFound: plain cold start, nothing to say.

        // Still cold and sampled?  Scan the shareable warm snapshots
        // (written by save_window at exponentially spaced window opens,
        // possibly by a *different* run of this cell with more refs) for
        // the deepest one that fits inside this run's window
        // count.  Restoring one skips every skip/warm phase up to that
        // window; run_sampled's absolute-position targets make the resume
        // exact.
        if (sim->ckpt_refs_done() == 0 && spec.sampling.enabled()) {
          const std::uint64_t windows =
              spec.sampling.windows_for(spec.refs_per_core);
          std::vector<std::uint64_t> candidates;  // w with w+1 a power of 2
          for (std::uint64_t w = 0; w < windows; w = w * 2 + 1) {
            candidates.push_back(w);
          }
          for (std::size_t i = candidates.size(); i-- > 0;) {
            const std::string wpath =
                window_snapshot_path(spec.ckpt_path, candidates[i]);
            const Status wst = load_checkpoint(wpath, key, *sim);
            if (wst.code() == StatusCode::kNotFound) continue;
            if (!wst.ok()) {
              // Torn or foreign snapshot: evict it (same rationale as the
              // main file) and rebuild the possibly-tainted simulator.
              std::fprintf(stderr, "warning: %s; evicting snapshot\n",
                           wst.to_string().c_str());
              evict_checkpoint(wpath);
              sim.reset();
              sim = build_sim();
              sim->set_ckpt_control(&ctl);
              continue;
            }
            break;  // deepest usable snapshot restored
          }
        }
      }
    }
    sim->set_ckpt_control(&ctl);
  }

  SimResult r = sim->run(spec.refs_per_core);
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.host_mrefs_per_s = r.host_seconds > 0.0
                           ? static_cast<double>(r.total_refs) /
                                 r.host_seconds / 1e6
                           : 0.0;
  return r;
}

Comparison compare(const SimResult& base, const SimResult& x) {
  REDHIP_CHECK(base.exec_cycles > 0 && x.exec_cycles > 0);
  // The energy ratios below all guard a zero denominator; the speedup must
  // too, or a hand-built/corrupt comparand silently puts inf into reports.
  REDHIP_CHECK_MSG(base.total_core_cycles > 0 && x.total_core_cycles > 0,
                   "compare() requires non-zero total_core_cycles");
  Comparison c;
  // Multiprogrammed performance: aggregate core time (average per-core
  // speedup), not the slowest core — one unlucky core would otherwise mask
  // the mean improvement the paper reports.
  c.speedup = static_cast<double>(base.total_core_cycles) /
              static_cast<double>(x.total_core_cycles);
  const double base_dyn = base.energy.dynamic_total_j();
  const double x_dyn = x.energy.dynamic_total_j();
  c.dyn_energy_ratio = base_dyn > 0.0 ? x_dyn / base_dyn : 1.0;
  const double base_total = base.energy.total_j();
  const double x_total = x.energy.total_j();
  c.total_energy_ratio = base_total > 0.0 ? x_total / base_total : 1.0;
  c.perf_energy_metric =
      c.speedup * (x_total > 0.0 ? base_total / x_total : 1.0);
  return c;
}

}  // namespace redhip
