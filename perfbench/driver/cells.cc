#include "cells.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ckpt/checkpoint_io.h"
#include "common/fnv.h"
#include "sim/config_digest.h"
#include "sweep/axes.h"

namespace perfbench {

using namespace redhip;

namespace {

// Run lengths.  Every workload runs at scale 8 (the figure benches'
// default).  Host speed on a shared machine drifts by tens of percent over
// seconds, so the exact and sweep passes are kept near one host second and
// a run reports the median of many; the tiny sizes only exercise every
// path.
constexpr std::uint32_t kScale = 8;
constexpr std::uint64_t kDeepRefs = 80'000;     // per core, per cell
constexpr std::uint64_t kStreamRefs = 120'000;   // per core, per cell
constexpr std::uint64_t kSweepRefs = 200'000;    // per core, per cell
constexpr std::uint64_t kTinyRefs = 20'000;
// Sampled: 150M aggregate references on 8 cores under the plan the
// paper-scale sampling runs use (period 6M, window 10k, warmup 100k):
// three windows, warm snapshots at window opens 0 and 1, and ~98% of the
// references skipped.  (500M references would hold only three passes in a
// run, too few for a steady median on a shared host.)
constexpr std::uint64_t kSampledRefs = 18'750'000;
constexpr SamplingPlan kSampledPlan{SampleMode::kInterval, 6'000'000, 10'000,
                                    100'000};
constexpr std::uint64_t kTinySampledRefs = 2'000'000;
constexpr SamplingPlan kTinySampledPlan{SampleMode::kInterval, 200'000, 5'000,
                                        50'000};

struct Column {
  const char* label;
  Scheme scheme;
  InclusionPolicy inclusion;
  bool prefetch;
};

std::vector<Cell> matrix(const std::vector<BenchmarkId>& benches,
                         const std::vector<Column>& columns,
                         std::uint64_t refs, std::uint64_t seed) {
  std::vector<Cell> cells;
  for (BenchmarkId b : benches) {
    for (const Column& c : columns) {
      Cell cell;
      cell.label = to_string(b) + "/" + c.label;
      cell.spec.bench = b;
      cell.spec.scheme = c.scheme;
      cell.spec.inclusion = c.inclusion;
      cell.spec.prefetch = c.prefetch;
      cell.spec.scale = kScale;
      cell.spec.refs_per_core = refs;
      cell.spec.seed = seed;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace

Workload make_workload_def(const std::string& name, std::uint64_t seed,
                           bool tiny) {
  Workload w;
  w.name = name;
  if (name == "exact-deep") {
    w.cells = matrix({BenchmarkId::kMcf, BenchmarkId::kSoplex,
                      BenchmarkId::kBlas},
                     {{"base", Scheme::kBase, InclusionPolicy::kInclusive,
                       false},
                      {"redhip", Scheme::kRedhip, InclusionPolicy::kInclusive,
                       false},
                      {"redhip-excl", Scheme::kRedhip,
                       InclusionPolicy::kExclusive, false}},
                     tiny ? kTinyRefs : kDeepRefs, seed);
  } else if (name == "exact-stream") {
    w.cells = matrix({BenchmarkId::kBwaves, BenchmarkId::kLbm,
                      BenchmarkId::kCactusADM},
                     {{"base", Scheme::kBase, InclusionPolicy::kInclusive,
                       false},
                      {"redhip", Scheme::kRedhip, InclusionPolicy::kInclusive,
                       false},
                      {"redhip-pf", Scheme::kRedhip,
                       InclusionPolicy::kInclusive, true}},
                     tiny ? kTinyRefs : kStreamRefs, seed);
  } else if (name == "sampled-resume") {
    w.kind = Kind::kSampled;
    w.cells = matrix({BenchmarkId::kMcf},
                     {{"redhip", Scheme::kRedhip, InclusionPolicy::kInclusive,
                       false}},
                     tiny ? kTinySampledRefs : kSampledRefs, seed);
    w.cells[0].spec.sampling = tiny ? kTinySampledPlan : kSampledPlan;
  } else if (name == "sweep-jobs4") {
    w.kind = Kind::kSweep;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    w.jobs = std::min<std::size_t>(4, hw);
    w.sweep.base.scale = kScale;
    w.sweep.base.refs_per_core = tiny ? kTinyRefs : kSweepRefs;
    w.sweep.base.seed = seed;
    ExperimentOptions eo;
    eo.scale = kScale;
    for (const char* axis : {"workload=astar,milc,soplex",
                             "scheme=Base,CBF,ReDHiP", "table-size=64K,512K"}) {
      w.sweep.axes.push_back(make_named_axis(axis, eo));
    }
    for (SweepCell& sc : expand(w.sweep)) {
      Cell cell;
      for (const std::string& l : sc.labels) {
        cell.label += (cell.label.empty() ? "" : "/") + l;
      }
      cell.spec = std::move(sc.spec);
      w.cells.push_back(std::move(cell));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t outcome_digest(const SimResult& r) {
  Fnv1a h;
  h.u64(r.total_refs);
  if (r.sampling.enabled) {
    const SamplingReport& s = r.sampling;
    h.u64(s.windows).u64(s.skipped_refs).u64(s.warmed_refs).u64(
        s.measured_refs);
    for (const MetricEstimate* e : {&s.ipc, &s.l1_hit_rate, &s.total_energy_j}) {
      h.f64(e->mean).f64(e->ci95_half);
    }
    for (const WindowSample& w : s.window_samples) {
      h.u64(w.index).u64(w.start_refs).u64(w.refs).u64(w.core_cycles);
      h.u64(w.l1_accesses).u64(w.l1_hits).f64(w.energy_j);
    }
    return h.digest();
  }
  for (const LevelEvents& l : r.levels) {
    h.u64(l.tag_probes).u64(l.data_probes).u64(l.fills).u64(l.invalidations);
    h.u64(l.writebacks).u64(l.accesses).u64(l.hits).u64(l.misses);
    h.u64(l.evictions).u64(l.skipped);
  }
  const PredictorEvents& p = r.predictor;
  h.u64(p.lookups).u64(p.updates).u64(p.recalibrations).u64(p.recal_sets_read);
  h.u64(p.recal_words_written).u64(p.predicted_absent).u64(p.predicted_present);
  h.u64(p.false_positives).u64(p.true_positives);
  const PrefetchEvents& f = r.prefetch;
  h.u64(f.table_lookups).u64(f.issued).u64(f.useful).u64(f.useless).u64(
      f.redundant);
  h.u64(r.memory_accesses).u64(r.demand_memory_accesses).u64(
      r.memory_writebacks);
  for (Cycles c : r.core_cycles) h.u64(c);
  h.u64(r.exec_cycles).u64(r.total_core_cycles).u64(r.recal_stall_cycles);
  h.u64(r.predictor_disabled_refs).f64(r.elapsed_seconds);
  const EnergyBreakdown& e = r.energy;
  for (double j : e.level_dynamic_j) h.f64(j);
  h.f64(e.predictor_dynamic_j).f64(e.recalibration_j).f64(e.prefetcher_j);
  h.f64(e.memory_j).f64(e.leakage_j);
  return h.digest();
}

std::string check_invariants(const SimResult& r, const RunSpec& spec) {
  const HierarchyConfig config = resolved_config(spec);
  if (r.total_refs != spec.refs_per_core * config.cores) {
    return "total_refs differs from cores x refs_per_core";
  }
  if (r.sampling.enabled) {
    const SamplingReport& s = r.sampling;
    if (s.skipped_refs + s.warmed_refs + s.measured_refs != r.total_refs) {
      return "skipped + warmed + measured differs from total_refs";
    }
    if (s.windows != spec.sampling.windows_for(spec.refs_per_core)) {
      return "window count differs from the plan";
    }
    return "";
  }
  if (r.levels.size() != config.num_levels()) return "wrong level count";
  for (const LevelEvents& l : r.levels) {
    if (l.hits + l.misses != l.accesses) return "hits + misses != accesses";
  }
  if (r.levels[0].accesses != r.total_refs) {
    return "L1 accesses differ from total_refs";
  }
  if (r.core_cycles.size() != config.cores) return "wrong core count";
  Cycles max_c = 0;
  Cycles sum_c = 0;
  for (Cycles c : r.core_cycles) {
    max_c = std::max(max_c, c);
    sum_c += c;
  }
  if (max_c != r.exec_cycles || sum_c != r.total_core_cycles) {
    return "exec/total core cycles disagree with per-core cycles";
  }
  const PredictorEvents& p = r.predictor;
  if (p.true_positives + p.false_positives > p.predicted_present) {
    return "more confirmed predictions than present predictions";
  }
  return "";
}

std::uint64_t ckpt_identity(const RunSpec& spec) {
  return ckpt_key(to_string(spec.bench), spec.scale, spec.seed,
                  config_digest(resolved_config(spec)) ^
                      sampling_digest(spec.sampling));
}

namespace {

std::unique_ptr<MulticoreSimulator> build_sim(const RunSpec& spec,
                                              const HierarchyConfig& config,
                                              Tracer* tracer) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  std::vector<std::uint32_t> cpis;
  {
    Span span(tracer, "trace.build");
    for (CoreId c = 0; c < config.cores; ++c) {
      std::unique_ptr<TraceSource> t =
          make_workload(spec.bench, c, spec.scale, spec.seed);
      if (tracer != nullptr) {
        t = std::make_unique<TracedTrace>(std::move(t), tracer);
      }
      traces.push_back(std::move(t));
      cpis.push_back(workload_cpi_centi(spec.bench, c));
    }
  }
  Span span(tracer, "sim.construct");
  auto sim = std::make_unique<MulticoreSimulator>(config, std::move(traces),
                                                  std::move(cpis));
  sim->set_sampling(spec.sampling);
  return sim;
}

}  // namespace

double build_only(const RunSpec& spec) {
  const auto t0 = Clock::now();
  const HierarchyConfig config = resolved_config(spec);
  const std::unique_ptr<MulticoreSimulator> sim =
      build_sim(spec, config, nullptr);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

BuiltRun run_built_cell(const RunSpec& spec, const CkptUse& ckpt,
                        Tracer* tracer) {
  BuiltRun out;
  const auto t0 = Clock::now();
  {
    Span cell(tracer, "cell");
    const HierarchyConfig config = resolved_config(spec);
    spec.sampling.validate(spec.refs_per_core).throw_if_error();
    std::unique_ptr<MulticoreSimulator> sim = build_sim(spec, config, tracer);

    CkptControl ctl;  // must outlive the run below
    std::vector<std::string> saved;
    const std::uint64_t key = ckpt.path.empty() ? 0 : ckpt_identity(spec);
    const auto save = [&](MulticoreSimulator& m, const std::string& path) {
      Span span(tracer, "ckpt.save");
      save_checkpoint(m, path, key).throw_if_error();
      saved.push_back(path);
    };
    if (!ckpt.path.empty()) {
      if (ckpt.save_at > 0) {
        ctl.save_at_refs = ckpt.save_at;
        ctl.save = [&](MulticoreSimulator& m) { save(m, ckpt.path); };
      }
      if (ckpt.save_windows) {
        ctl.save_window = [&](MulticoreSimulator& m, std::uint64_t w) {
          save(m, window_snapshot_path(ckpt.path, w));
        };
      }
      if (ckpt.restore) {
        Span span(tracer, "ckpt.load");
        std::vector<std::string> candidates;
        if (spec.sampling.enabled()) {
          // Deepest first, as run_spec scans them.
          const std::uint64_t windows =
              spec.sampling.windows_for(spec.refs_per_core);
          for (std::uint64_t w = 0; w < windows; w = w * 2 + 1) {
            candidates.insert(candidates.begin(),
                              window_snapshot_path(ckpt.path, w));
          }
        } else {
          candidates.push_back(ckpt.path);
        }
        for (const std::string& path : candidates) {
          const Status st = load_checkpoint(path, key, *sim);
          if (st.ok()) {
            out.restored = true;
            break;
          }
          // A failed load may have mutated the simulator; start over.
          sim.reset();
          sim = build_sim(spec, config, tracer);
        }
        out.restored_refs = sim->ckpt_refs_done();
      }
      sim->set_ckpt_control(&ctl);
    }
    {
      Span run(tracer, "sim.run");
      out.result = sim->run(spec.refs_per_core);
    }
    out.saves = saved.size();
    for (const std::string& path : saved) {
      std::error_code ec;
      const std::uintmax_t n = std::filesystem::file_size(path, ec);
      if (!ec) out.saved_bytes += n;
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace perfbench
