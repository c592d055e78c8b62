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

std::uint64_t ckpt_key(const RunSpec& spec) {
  // The sampling plan joins the key: a sampled run's checkpoint encodes
  // window progress that is meaningless under any other plan (or under
  // exact execution), so such files must never cross-restore.
  return ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                  config_digest(resolved_config(spec)) ^
                      sampling_digest(spec.sampling));
}

namespace {

// Save through `path`; a failed save never corrupts the run, it only loses
// restart coverage, so it warns instead of aborting a healthy simulation.
void save_or_warn(const MulticoreSimulator& sim, const std::string& path,
                  std::uint64_t key) {
  const Status st = save_checkpoint(sim, path, key);
  if (!st.ok()) std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
}

}  // namespace

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
    // Inside build_sim so a rebuild is also a *sampled* rebuild: the plan
    // is part of the machine identity for this run.
    s->set_sampling(spec.sampling);
    return s;
  };
  std::unique_ptr<MulticoreSimulator> sim = build_sim();

  const bool ckpt_on = !spec.ckpt_path.empty() ||
                       spec.stop_flag != nullptr || spec.deadline_seconds > 0;
  CkptControl ctl;  // must outlive the run below
  if (ckpt_on) {
    const std::uint64_t key = ckpt_key(spec);
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
        save_or_warn(s, path, key);
      };
      if (spec.sampling.enabled()) {
        // Shareable warm snapshots (see CkptControl::save_window): the
        // prefix up to a window open is independent of the run's total
        // reference count, so these files are content-addressed by (key,
        // window index) only and cross-restore between cells that differ
        // solely in that count.
        ctl.save_window = [path = spec.ckpt_path,
                           key](MulticoreSimulator& s, std::uint64_t w) {
          save_or_warn(s, window_snapshot_path(path, w), key);
        };
      }
    }
    if (!spec.ckpt_path.empty() && spec.ckpt_restore) {
      // Candidates: the main file, then a sampled run's warm snapshots
      // (written at window opens w with w+1 a power of two, possibly by a
      // longer run of this cell) that fit inside this run, deepest first.
      // Restoring one skips every skip/warm phase up to that window;
      // run_sampled's absolute-position targets make the resume exact.
      std::vector<std::string> candidates{spec.ckpt_path};
      if (spec.sampling.enabled()) {
        const std::uint64_t windows =
            spec.sampling.windows_for(spec.refs_per_core);
        for (std::uint64_t w = 0; w < windows; w = w * 2 + 1) {
          candidates.insert(candidates.begin() + 1,
                            window_snapshot_path(spec.ckpt_path, w));
        }
      }
      for (const std::string& path : candidates) {
        const Status st = load_checkpoint(path, key, *sim);
        if (st.code() == StatusCode::kNotFound) continue;  // sim untouched
        if (st.ok() &&
            sim->ckpt_refs_done() <= spec.refs_per_core * config.cores) {
          break;  // restored
        }
        if (st.ok()) {
          // Valid, but past this run's end: a prefix of a longer run is
          // useless here.  Keep the file, it is still valid for the run
          // that wrote it.
          std::fprintf(stderr,
                       "warning: checkpoint %s is ahead of this run "
                       "(ignoring it)\n",
                       path.c_str());
        } else {
          // Torn, corrupt, or foreign: evict it — a wrong result is never
          // an option, a lost warmup merely costs time.
          std::fprintf(stderr, "warning: %s; evicting and %s\n",
                       st.to_string().c_str(),
                       &path == &candidates.back()
                           ? "cold-starting"
                           : "trying an older snapshot");
          evict_checkpoint(path);
        }
        // The load may have mutated the simulator.  Nothing it did reached
        // the trace file (ObsCollector::ckpt_load writes nothing), so the
        // replacement may simply take its place.
        sim = build_sim();
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
