// perfbench — runs one workload of the repository benchmark for a fixed
// measuring time, checks every simulated outcome and prints the metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//             [--expected FILE] [--record FILE] [--tiny 1]
//             [--report FILE] [--spans FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a separate traced pass, alternated with untraced passes so the
// tracing overhead is measured in the same run).  The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}.
//
// --expected names the stored outcome digests (and the exact values the
// sampled confidence intervals must cover); entries apply only to the seed
// and run length they were recorded at.  --record appends this workload's
// entries to FILE instead of measuring.  See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "micro.h"
#include "probe.h"
#include "sweep/result_cache.h"

using namespace redhip;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work;
  std::string expected;
  std::string record;
  std::string report;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + a);
    a = a.substr(2);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      throw std::invalid_argument("--" + a + " needs a value");
    }
  }
  Args args;
  const auto take = [&](const char* key, std::string& out) {
    auto it = kv.find(key);
    if (it == kv.end()) return false;
    out = it->second;
    kv.erase(it);
    return true;
  };
  std::string v;
  if (!take("workload", args.workload)) {
    throw std::invalid_argument("--workload is required");
  }
  if (take("seed", v)) args.seed = std::stoull(v);
  if (take("seconds", v)) args.seconds = std::stod(v);
  if (take("trace", v)) args.trace = v == "1";
  if (take("tiny", v)) args.tiny = v == "1";
  if (!take("work", args.work)) throw std::invalid_argument("--work is required");
  take("expected", args.expected);
  take("record", args.record);
  take("report", args.report);
  take("spans", args.spans);
  if (!kv.empty()) {
    throw std::invalid_argument("unknown option --" + kv.begin()->first);
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// --- Stored outcomes ---------------------------------------------------------
// Lines: "digest <workload> <seed> <refs_per_core> <cell> <hex>" and
//        "exact <workload> <seed> <refs_per_core> <cell> <metric> <value>".
struct Expected {
  std::map<std::string, std::uint64_t> digests;
  std::map<std::string, double> exact;

  static std::string key(const std::string& workload, std::uint64_t seed,
                         const Cell& cell) {
    return workload + " " + std::to_string(seed) + " " +
           std::to_string(cell.spec.refs_per_core) + " " + cell.label;
  }

  void load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ss(line);
      std::string tag, workload, seed, refs, label;
      if (!(ss >> tag) || tag[0] == '#') continue;
      ss >> workload >> seed >> refs >> label;
      const std::string k = workload + " " + seed + " " + refs + " " + label;
      if (tag == "digest") {
        std::string h;
        ss >> h;
        digests[k] = std::stoull(h, nullptr, 16);
      } else if (tag == "exact") {
        std::string metric;
        double value = 0.0;
        ss >> metric >> value;
        exact[k + " " + metric] = value;
      }
      if (!ss) throw std::runtime_error("malformed line in " + path + ": " + line);
    }
  }
};

// --- Correctness gate --------------------------------------------------------
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 50) failures.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

struct Ctx {
  Args args;
  Workload w;
  Expected expected;
  Gate gate;
  fs::path work;
  std::map<std::string, std::uint64_t> first_digest;  // label -> digest
  Clock::time_point origin = Clock::now();
  std::uint32_t next_cell_id = 0;
};

// One operation per cell run: invariants, determinism against the first
// run of the cell in this process, the stored digest when one applies, and
// for sampled cells the stored exact values the CIs must cover.
void check_cell(Ctx& ctx, const Cell& cell, const SimResult& r,
                const std::string& where) {
  std::string why = check_invariants(r, cell.spec);
  const std::uint64_t d = outcome_digest(r);
  auto [it, inserted] = ctx.first_digest.emplace(cell.label, d);
  if (why.empty() && !inserted && it->second != d) {
    why = "outcome differs from the first run of this cell";
  }
  const std::string key = Expected::key(ctx.w.name, ctx.args.seed, cell);
  auto e = ctx.expected.digests.find(key);
  if (why.empty() && e != ctx.expected.digests.end() && e->second != d) {
    why = "outcome digest " + hex(d) + " differs from the stored " +
          hex(e->second);
  }
  if (why.empty() && r.sampling.enabled) {
    const std::pair<const char*, const MetricEstimate*> est[] = {
        {"ipc", &r.sampling.ipc},
        {"l1_hit_rate", &r.sampling.l1_hit_rate},
        {"total_energy_j", &r.sampling.total_energy_j}};
    for (const auto& [metric, m] : est) {
      auto x = ctx.expected.exact.find(key + " " + metric);
      if (x != ctx.expected.exact.end() && !m->covers(x->second)) {
        why = std::string("sampled ") + metric + " CI misses the exact value";
      }
    }
  }
  ctx.gate.op(why.empty(), where + " " + cell.label + ": " + why);
}

// --- Passes ------------------------------------------------------------------
struct Pass {
  double wall_s = 0.0;     // the workload's cells (exact: summed; sweep: pool)
  double refs = 0.0;       // references the pass represents
  double cell_host_s = 0.0;
  double queue_wait_s = 0.0;
  double resume_s = 0.0;
  double probe = 0.0;  // host-speed probe rate next to this pass (ops/s)
  double speed = 1.0;  // probe / kProbeNominalOpsPerS
  std::vector<SimResult> results;  // one per cell, in cell order
  std::vector<std::unique_ptr<Tracer>> cell_tracers;
  std::vector<std::unique_ptr<Tracer>> other_tracers;  // resume, seeding
  std::uint64_t saves = 0;
  std::uint64_t saved_bytes = 0;
  fs::path cache_dir;  // sweep: the cold pass's result cache
};

std::uint64_t half_point(const RunSpec& spec) {
  return spec.refs_per_core * resolved_config(spec).cores / 2;
}

std::unique_ptr<Tracer> new_tracer(Ctx& ctx) {
  return std::make_unique<Tracer>(ctx.next_cell_id++, ctx.origin);
}

// A traced run of `cell` on this thread, added to the pass.  One gate
// operation: the spans must reconcile and the outcome must check out.
void traced_cell(Ctx& ctx, Pass& p, const Cell& cell, const CkptUse& use) {
  std::unique_ptr<Tracer> t = new_tracer(ctx);
  BuiltRun b = run_built_cell(cell.spec, use, t.get());
  std::string why;
  if (!t->reconciles(&why)) {
    ctx.gate.op(false, "traced cell " + cell.label + ": " + why);
  } else {
    check_cell(ctx, cell, b.result, "traced cell");
  }
  p.wall_s += b.wall_s;
  p.saves += b.saves;
  p.saved_bytes += b.saved_bytes;
  p.refs += static_cast<double>(b.result.total_refs);
  p.results.push_back(std::move(b.result));
  p.cell_tracers.push_back(std::move(t));
}

// An untraced run of `cell` through run_spec, added to the pass.
void untraced_cell(Ctx& ctx, Pass& p, const Cell& cell, const RunSpec& spec) {
  const auto t0 = Clock::now();
  SimResult r = run_spec(spec);
  p.wall_s += since(t0);
  p.cell_host_s += r.host_seconds;
  p.refs += static_cast<double>(r.total_refs);
  check_cell(ctx, cell, r, "cell");
  p.results.push_back(std::move(r));
}

// Restores the resume cell from the checkpoint the pass left behind and
// checks that it restored and finished with the uninterrupted outcome.
// Returns the wall time of the restoring run.
double resume_once(Ctx& ctx, Pass& p, bool traced, const fs::path& ckpt) {
  const Cell& cell = ctx.w.cells[0];
  std::unique_ptr<Tracer> t = traced ? new_tracer(ctx) : nullptr;
  CkptUse use;
  use.path = ckpt.string();
  use.restore = true;
  const std::string where = traced ? "traced resume" : "resume";
  double wall = 0.0;
  try {
    BuiltRun b = run_built_cell(cell.spec, use, t.get());
    wall = b.wall_s;
    std::string why;
    if (!b.restored || b.restored_refs == 0) {
      why = "did not restore";
    } else if (outcome_digest(b.result) != ctx.first_digest[cell.label]) {
      why = "restored outcome differs from the uninterrupted run";
    } else if (t) {
      t->reconciles(&why);
    }
    ctx.gate.op(why.empty(), where + " " + cell.label + ": " + why);
  } catch (const std::exception& e) {
    ctx.gate.op(false, where + " " + cell.label + ": " + e.what());
  }
  if (t) p.other_tracers.push_back(std::move(t));
  return wall;
}

// The exact workloads' restore takes a few tens of milliseconds, so it is
// repeated and the median kept.
constexpr int kExactResumeReps = 5;

void resume_step(Ctx& ctx, Pass& p, bool traced, const fs::path& ckpt) {
  const int reps = ctx.w.kind == Kind::kExact ? kExactResumeReps : 1;
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) walls.push_back(resume_once(ctx, p, traced, ckpt));
  p.resume_s = median(walls);
}

Pass exact_pass(Ctx& ctx, bool traced) {
  Pass p;
  const fs::path ckpt = ctx.work / "resume.ckpt";
  for (std::size_t i = 0; i < ctx.w.cells.size(); ++i) {
    const Cell& cell = ctx.w.cells[i];
    try {
      // The first cell leaves a half-way checkpoint for the resume step.
      if (traced) {
        CkptUse use;
        if (i == 0) {
          use.path = ckpt.string();
          use.save_at = half_point(cell.spec);
        }
        traced_cell(ctx, p, cell, use);
      } else {
        RunSpec spec = cell.spec;
        if (i == 0) {
          spec.ckpt_path = ckpt.string();
          spec.ckpt_save_at_refs = half_point(spec);
        }
        untraced_cell(ctx, p, cell, spec);
      }
    } catch (const std::exception& e) {
      ctx.gate.op(false, "cell " + cell.label + ": " + e.what());
      p.results.emplace_back();
    }
  }
  resume_step(ctx, p, traced, ckpt);
  return p;
}

// Writes the shareable warm snapshots the sampled resume step restores.
void seed_snapshots(Ctx& ctx, Pass& p, bool traced) {
  const Cell& cell = ctx.w.cells[0];
  std::unique_ptr<Tracer> t = traced ? new_tracer(ctx) : nullptr;
  CkptUse use;
  use.path = (ctx.work / "sampled.ckpt").string();
  use.save_windows = true;
  try {
    BuiltRun b = run_built_cell(cell.spec, use, t.get());
    p.saves += b.saves;
    p.saved_bytes += b.saved_bytes;
    check_cell(ctx, cell, b.result, "seeding");
  } catch (const std::exception& e) {
    ctx.gate.op(false, "seeding " + cell.label + ": " + e.what());
  }
  if (t) p.other_tracers.push_back(std::move(t));
}

Pass sampled_pass(Ctx& ctx, bool traced) {
  Pass p;
  const Cell& cell = ctx.w.cells[0];
  try {
    if (traced) {
      traced_cell(ctx, p, cell, CkptUse{});
    } else {
      untraced_cell(ctx, p, cell, cell.spec);
    }
  } catch (const std::exception& e) {
    ctx.gate.op(false, "cold " + cell.label + ": " + e.what());
    p.results.emplace_back();
  }
  resume_step(ctx, p, traced, ctx.work / "sampled.ckpt");
  return p;
}

SweepRunOptions sweep_options(const Ctx& ctx, const fs::path& dir) {
  SweepRunOptions o;
  o.cache_dir = dir.string();
  o.jobs = ctx.w.jobs;
  return o;
}

constexpr int kAllHitReps = 25;

Pass sweep_pass(Ctx& ctx, bool traced, std::uint64_t index) {
  Pass p;
  const std::size_t n = ctx.w.cells.size();
  if (traced) {
    // The sweep's cells built from public pieces on the same pool size and
    // in the same longest-first order the sweep executor uses.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return estimated_run_cost(ctx.w.cells[a].spec) >
             estimated_run_cost(ctx.w.cells[b].spec);
    });
    std::vector<BuiltRun> runs(n);
    std::vector<std::string> errors(n);
    for (std::size_t i = 0; i < n; ++i) p.cell_tracers.push_back(new_tracer(ctx));
    std::vector<std::function<void()>> tasks;
    for (std::size_t i : order) {
      tasks.push_back([&, i] {
        try {
          runs[i] = run_built_cell(ctx.w.cells[i].spec, CkptUse{},
                                   p.cell_tracers[i].get());
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    const auto t0 = Clock::now();
    ThreadPool::run_all(std::move(tasks), ctx.w.jobs);
    p.wall_s = since(t0);
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& cell = ctx.w.cells[i];
      std::string why = errors[i];
      if (why.empty()) p.cell_tracers[i]->reconciles(&why);
      if (!why.empty()) {
        ctx.gate.op(false, "traced cell " + cell.label + ": " + why);
      } else {
        check_cell(ctx, cell, runs[i].result, "traced cell");
      }
      p.refs += static_cast<double>(runs[i].result.total_refs);
      p.results.push_back(std::move(runs[i].result));
    }
    return p;
  }

  p.cache_dir = ctx.work / ("cache-" + std::to_string(index));
  fs::remove_all(p.cache_dir);
  const SweepRunOptions o = sweep_options(ctx, p.cache_dir);
  try {
    const auto t0 = Clock::now();
    SweepOutcome cold = run_sweep(ctx.w.sweep, o);
    p.wall_s = since(t0);
    ctx.gate.op(cold.cells.size() == n && cold.stats.cache_hits == 0 &&
                    cold.stats.simulated == n,
                "sweep cold pass did not simulate every cell");
    for (std::size_t i = 0; i < cold.cells.size() && i < n; ++i) {
      SweepCell& sc = cold.cells[i];
      const Cell& cell = ctx.w.cells[i];
      if (!sc.status.ok() || sc.from_cache) {
        ctx.gate.op(false, "sweep cell " + cell.label + ": " +
                               sc.status.to_string());
      } else {
        check_cell(ctx, cell, sc.result, "sweep cell");
      }
      p.refs += static_cast<double>(sc.result.total_refs);
      p.cell_host_s += sc.result.host_seconds;
      p.queue_wait_s += sc.result.queue_wait_seconds;
      p.results.push_back(std::move(sc.result));
    }
    // The all-hit pass: every cell must come back from the cache unchanged.
    // It takes about a millisecond, so it is repeated and its median kept.
    std::vector<double> resumes;
    for (int rep = 0; rep < kAllHitReps; ++rep) {
      const auto t1 = Clock::now();
      SweepOutcome warm = run_sweep(ctx.w.sweep, o);
      resumes.push_back(since(t1));
      ctx.gate.op(warm.stats.cache_hits == n && warm.stats.simulated == 0,
                  "sweep resume pass simulated cells");
      for (std::size_t i = 0; i < warm.cells.size() && i < p.results.size();
           ++i) {
        const SweepCell& sc = warm.cells[i];
        ctx.gate.op(sc.status.ok() && sc.from_cache &&
                        stats_identical(sc.result, p.results[i]),
                    "cache load " + ctx.w.cells[i].label +
                        ": differs from the simulated result");
      }
    }
    p.resume_s = median(resumes);
  } catch (const std::exception& e) {
    ctx.gate.op(false, std::string("sweep pass: ") + e.what());
  }
  return p;
}

Pass run_pass(Ctx& ctx, bool traced, std::uint64_t index) {
  switch (ctx.w.kind) {
    case Kind::kExact: return exact_pass(ctx, traced);
    case Kind::kSampled: return sampled_pass(ctx, traced);
    case Kind::kSweep: return sweep_pass(ctx, traced, index);
  }
  return {};
}

// Set-up only, as a user's run pays it: make_workload for every core plus
// simulator construction for every cell; the sweep also expands its spec
// and opens its result cache.
double setup_once(Ctx& ctx) {
  double total = 0.0;
  if (ctx.w.kind == Kind::kSweep) {
    const auto t0 = Clock::now();
    const std::vector<SweepCell> cells = expand(ctx.w.sweep);
    const ResultCache cache(ctx.work / "setup-cache");
    total += since(t0);
    for (const SweepCell& c : cells) total += build_only(c.spec);
  } else {
    for (const Cell& c : ctx.w.cells) total += build_only(c.spec);
  }
  return total;
}

// --- Metrics -----------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double pass_rate(const Pass& p) { return ratio(p.refs, p.wall_s) / 1e6; }

// Timings are scaled to the nominal host speed measured by the probe next
// to each pass: a rate divides by the pass's speed, a time multiplies.
std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               const std::vector<Pass>& passes) {
  std::vector<double> rates, resumes;
  for (const Pass& p : passes) {
    rates.push_back(pass_rate(p) / p.speed);
    resumes.push_back(p.resume_s * p.speed);
  }
  return {{"setup_s", median(setups), "s"},
          {"mrefs_per_s", median(rates), "Mrefs/s"},
          {"resume_s", median(resumes), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

struct SpanSums {
  double busy = 0.0, self = 0.0;
  std::uint64_t calls = 0, items = 0;
};

SpanSums sums(const std::vector<const Tracer*>& ts, const char* name) {
  SpanSums s;
  for (const Tracer* t : ts) {
    s.busy += t->busy_of(name);
    s.self += t->self_of(name);
    s.calls += t->calls_of(name);
    s.items += t->items_of(name);
  }
  return s;
}

std::vector<Metric> per_layer(Ctx& ctx, const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced,
                              const Pass& seeding, const MicroTotals& micro,
                              const std::vector<double>& sweep_load,
                              const std::vector<double>& sweep_store) {
  std::vector<const Tracer*> cells, all;
  for (const Pass& p : traced) {
    for (const auto& t : p.cell_tracers) {
      cells.push_back(t.get());
      all.push_back(t.get());
    }
    for (const auto& t : p.other_tracers) all.push_back(t.get());
  }
  for (const auto& t : seeding.other_tracers) all.push_back(t.get());
  const double passes = static_cast<double>(std::max<std::size_t>(1, traced.size()));

  // Counters from the traced passes' results (identical to the untraced
  // ones — the gate checked the digests).
  double l1_acc = 0, l1_hit = 0, l1_miss = 0, llc_acc = 0, llc_hit = 0,
         inval = 0, lookups = 0, absent = 0, present = 0, fp = 0, recals = 0,
         pf_issued = 0, pf_useful = 0, sim_refs = 0, measured = 0,
         represented = 0, warmed = 0, warm_s = 0;
  for (const Pass& p : traced) {
    for (const SimResult& r : p.results) {
      if (r.levels.empty()) continue;
      l1_acc += r.levels.front().accesses;
      l1_hit += r.levels.front().hits;
      l1_miss += r.levels.front().misses;
      llc_acc += r.levels.back().accesses;
      llc_hit += r.levels.back().hits;
      for (const LevelEvents& l : r.levels) inval += l.invalidations;
      lookups += r.predictor.lookups;
      absent += r.predictor.predicted_absent;
      present += r.predictor.predicted_present;
      fp += r.predictor.false_positives;
      recals += r.predictor.recalibrations;
      pf_issued += r.prefetch.issued;
      pf_useful += r.prefetch.useful;
      represented += r.total_refs;
      if (r.sampling.enabled) {
        measured += r.sampling.measured_refs;
        warmed += r.sampling.warmed_refs;
        sim_refs += r.sampling.warmed_refs + r.sampling.measured_refs;
        warm_s += r.warm_host_seconds;
      } else {
        sim_refs += r.total_refs;
      }
    }
  }

  const SpanSums build = sums(cells, "trace.build");
  const SpanSums construct = sums(cells, "sim.construct");
  const SpanSums gen = sums(all, "trace.gen");
  const SpanSums skip = sums(all, "trace.skip");
  const SpanSums run = sums(cells, "sim.run");
  const SpanSums save = sums(all, "ckpt.save");
  const SpanSums load = sums(all, "ckpt.load");
  const SpanSums state = sums(all, "trace.state");

  std::uint64_t first_round_saves = seeding.saves;
  std::uint64_t saved_bytes = seeding.saved_bytes;
  if (!traced.empty()) first_round_saves += traced.front().saves;
  for (const Pass& p : traced) saved_bytes += p.saved_bytes;
  std::uint64_t all_saves = seeding.saves;
  for (const Pass& p : traced) all_saves += p.saves;

  std::vector<double> util, qwait, traced_wall, untraced_wall, hits;
  for (const Pass& p : untraced) {
    util.push_back(ratio(p.cell_host_s,
                         static_cast<double>(ctx.w.jobs) * p.wall_s));
    qwait.push_back(p.queue_wait_s);
    untraced_wall.push_back(p.wall_s * p.speed);
  }
  for (const Pass& p : traced) traced_wall.push_back(p.wall_s * p.speed);
  const double cache_hits =
      ctx.w.kind == Kind::kSweep ? static_cast<double>(ctx.w.cells.size()) : 0.0;

  const double fails = static_cast<double>(ctx.gate.failed);
  const double tries = static_cast<double>(std::max<std::uint64_t>(1, ctx.gate.attempted));
  return {
      {"trace.build_ms", build.busy / passes * 1e3, "ms"},
      {"sim.construct_ms", construct.busy / passes * 1e3, "ms"},
      {"trace.gen_ns_per_ref", ratio(gen.busy, gen.items) * 1e9, "ns/ref"},
      {"trace.skip_ns_per_ref", ratio(skip.busy, skip.items) * 1e9, "ns/ref"},
      {"sim.sample_duty_cycle", ratio(measured, represented), "frac"},
      {"sim.self_ns_per_ref", ratio(run.self, sim_refs) * 1e9, "ns/ref"},
      {"sim.self_ns_per_l1_miss", ratio(run.self, l1_miss) * 1e9, "ns/miss"},
      {"sim.warm_ns_per_ref", ratio(warm_s, warmed) * 1e9, "ns/ref"},
      {"cache.l1_hit_rate", ratio(l1_hit, l1_acc), "frac"},
      {"cache.llc_accesses_per_kref", ratio(llc_acc, l1_acc) * 1e3, "1/kref"},
      {"cache.llc_hit_rate", ratio(llc_hit, llc_acc), "frac"},
      {"cache.invalidations_per_kref", ratio(inval, l1_acc) * 1e3, "1/kref"},
      {"cache.lookup_ns", ratio(micro.lookup_s, micro.lookups) * 1e9, "ns"},
      {"cache.fill_ns", ratio(micro.fill_s, micro.fills) * 1e9, "ns"},
      {"predict.lookups_per_kref", ratio(lookups, l1_acc) * 1e3, "1/kref"},
      {"predict.bypass_frac", ratio(absent, lookups), "frac"},
      {"predict.false_pos_frac", ratio(fp, present), "frac"},
      {"predict.recalibrations", recals / passes, "count"},
      {"predict.query_ns", ratio(micro.query_s, micro.queries) * 1e9, "ns"},
      {"predict.fill_ns", ratio(micro.pt_fill_s, micro.pt_fills) * 1e9, "ns"},
      {"predict.recal_ms", ratio(micro.recal_s, micro.recals) * 1e3, "ms"},
      {"prefetch.issued_per_kref", ratio(pf_issued, l1_acc) * 1e3, "1/kref"},
      {"prefetch.useful_frac", ratio(pf_useful, pf_issued), "frac"},
      {"prefetch.observe_ns", ratio(micro.observe_s, micro.observes) * 1e9, "ns"},
      {"ckpt.saves", static_cast<double>(first_round_saves), "count"},
      {"ckpt.save_ms", ratio(save.busy, save.calls) * 1e3, "ms"},
      {"ckpt.load_ms", ratio(load.busy, load.calls) * 1e3, "ms"},
      {"ckpt.file_kb", ratio(saved_bytes, all_saves) / 1024.0, "KiB"},
      {"trace.state_ms", ratio(state.busy, save.calls + load.calls) * 1e3, "ms"},
      {"sweep.cache_hits", cache_hits, "count"},
      {"sweep.load_ms", median(sweep_load) * 1e3, "ms"},
      {"sweep.store_ms", median(sweep_store) * 1e3, "ms"},
      {"harness.pool_util", median(util), "frac"},
      {"harness.queue_wait_s", median(qwait), "s"},
      {"tracing_overhead_pct",
       (ratio(median(traced_wall), median(untraced_wall)) - 1.0) * 100.0, "%"},
      {"failed_frac", fails / tries, "frac"},
  };
}

// Times ResultCache::load of every cell the cold pass stored, and
// ResultCache::store of every result into a fresh directory.
void probe_result_cache(Ctx& ctx, const Pass& cold, std::vector<double>& load,
                        std::vector<double>& store) {
  const ResultCache cache(cold.cache_dir);
  const ResultCache fresh(ctx.work / "store-probe");
  const std::vector<SweepCell> cells = expand(ctx.w.sweep);
  for (std::size_t i = 0; i < cells.size() && i < cold.results.size(); ++i) {
    auto t0 = Clock::now();
    Result<SimResult> r = cache.load(cells[i].key);
    load.push_back(since(t0));
    ctx.gate.op(r.ok() && stats_identical(r.value(), cold.results[i]),
                "cache probe load " + ctx.w.cells[i].label);
    t0 = Clock::now();
    const Status st = fresh.store(cells[i].key, cold.results[i]);
    store.push_back(since(t0));
    ctx.gate.op(st.ok(), "cache probe store " + ctx.w.cells[i].label);
  }
}

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void write_report(const Ctx& ctx, const std::string& path,
                  const std::vector<double>& setups,
                  const std::vector<Pass>& untraced,
                  const std::vector<Pass>& traced,
                  const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               ctx.w.name.c_str(),
               static_cast<unsigned long long>(ctx.args.seed),
               ctx.args.trace ? 1 : 0);
  std::fprintf(f, " \"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"cxx_flags\": \"%s\", \"lto\": %d},\n",
               __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
               PERFBENCH_LTO);
  std::fprintf(f, " \"probe_nominal_ops_per_s\": %.1f,\n", kProbeNominalOpsPerS);
  std::fprintf(f, " \"raw_setup_s\": [");
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", setups[i]);
  }
  std::fprintf(f, "],\n \"passes\": [");
  bool first = true;
  for (const auto* list : {&untraced, &traced}) {
    for (const Pass& p : *list) {
      std::fprintf(f, "%s\n  {\"traced\": %d, \"wall_s\": %.9f, "
                   "\"refs\": %.0f, \"mrefs_per_s\": %.9f, \"resume_s\": %.9f, "
                   "\"probe\": %.1f, \"speed\": %.6f}",
                   first ? "" : ",", list == &traced ? 1 : 0, p.wall_s, p.refs,
                   pass_rate(p), p.resume_s, p.probe, p.speed);
      first = false;
    }
  }
  std::fprintf(f, "],\n \"digests\": {");
  first = true;
  for (const auto& [label, d] : ctx.first_digest) {
    std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", label.c_str(),
                 hex(d).c_str());
    first = false;
  }
  std::fprintf(f, "},\n \"failures\": [");
  for (std::size_t i = 0; i < ctx.gate.failures.size(); ++i) {
    std::string s = ctx.gate.failures[i];
    std::replace(s.begin(), s.end(), '"', '\'');
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", s.c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? ", " : "", metrics[i].name.c_str(),
                 std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                 metrics[i].unit.c_str());
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

// --record: one run of every cell, appended as stored outcomes.  Sampled
// cells also get the exact run of the same length, whose IPC, L1 hit rate
// and energy the sampled CIs must cover.
void record(Ctx& ctx) {
  std::FILE* f = std::fopen(ctx.args.record.c_str(), "a");
  if (f == nullptr) throw std::runtime_error("cannot append to " + ctx.args.record);
  std::vector<SimResult> results;
  if (ctx.w.kind == Kind::kSweep) {
    SweepOutcome out = run_sweep(ctx.w.sweep, sweep_options(ctx, ctx.work / "record"));
    for (SweepCell& sc : out.cells) {
      sc.status.throw_if_error();
      results.push_back(std::move(sc.result));
    }
  } else {
    for (const Cell& cell : ctx.w.cells) results.push_back(run_spec(cell.spec));
  }
  for (std::size_t i = 0; i < ctx.w.cells.size(); ++i) {
    const Cell& cell = ctx.w.cells[i];
    const std::string why = check_invariants(results[i], cell.spec);
    if (!why.empty()) throw std::runtime_error(cell.label + ": " + why);
    const std::string key = Expected::key(ctx.w.name, ctx.args.seed, cell);
    std::fprintf(f, "digest %s %s\n", key.c_str(),
                 hex(outcome_digest(results[i])).c_str());
    if (cell.spec.sampling.enabled()) {
      RunSpec exact = cell.spec;
      exact.sampling = SamplingPlan{};
      const SimResult e = run_spec(exact);
      const double ipc = static_cast<double>(e.total_refs) *
                         resolved_config(exact).cores /
                         static_cast<double>(e.total_core_cycles);
      std::fprintf(f, "exact %s ipc %.17g\n", key.c_str(), ipc);
      std::fprintf(f, "exact %s l1_hit_rate %.17g\n", key.c_str(), e.hit_rate(0));
      std::fprintf(f, "exact %s total_energy_j %.17g\n", key.c_str(),
                   e.energy.total_j());
    }
  }
  std::fclose(f);
}

constexpr double kSetupSliceS = 0.02;

int run(const Args& args) {
  Ctx ctx;
  ctx.args = args;
  ctx.w = make_workload_def(args.workload, args.seed, args.tiny);
  ctx.work = args.work;
  fs::create_directories(ctx.work);
  if (!args.expected.empty()) ctx.expected.load(args.expected);
  if (!args.record.empty()) {
    record(ctx);
    return 0;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: build type is '%s', not "
                 "Release; timings are not comparable\n", PERFBENCH_BUILD_TYPE);
  }

  // Whole passes until the measuring time is spent (at least min_passes).
  // Set-up is timed on its own before every pass, repeated for a few
  // milliseconds, so its median covers the same stretch of host time as
  // the passes do.
  const auto start = Clock::now();
  Pass seeding;
  if (ctx.w.kind == Kind::kSampled) seed_snapshots(ctx, seeding, args.trace);

  std::vector<double> setups, probes;
  std::vector<std::size_t> setup_round;
  std::vector<Pass> untraced, traced;
  const std::size_t min_passes = args.trace ? 1 : (args.tiny ? 2 : 3);
  double last_round = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    if (untraced.size() >= min_passes &&
        since(start) + last_round > args.seconds) {
      break;
    }
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 3 || since(t0) < kSetupSliceS; ++rep) {
      setups.push_back(setup_once(ctx));
      setup_round.push_back(untraced.size());
    }
    probes.push_back(probe_rate());
    untraced.push_back(run_pass(ctx, false, i));
    if (args.trace) traced.push_back(run_pass(ctx, true, i));
    last_round = since(t0);
  }
  probes.push_back(probe_rate());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    untraced[i].probe = 0.5 * (probes[i] + probes[i + 1]);
    untraced[i].speed = untraced[i].probe / kProbeNominalOpsPerS;
    if (i < traced.size()) {
      traced[i].probe = untraced[i].probe;
      traced[i].speed = untraced[i].speed;
    }
  }
  std::vector<double> raw_setups = setups;
  for (std::size_t k = 0; k < setups.size(); ++k) {
    setups[k] *= untraced[setup_round[k]].speed;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(setups, untraced);
  } else {
    MicroTotals micro;
    const std::uint64_t micro_refs = args.tiny ? 4096 : 65536;
    for (const Cell& cell : ctx.w.cells) {
      try {
        measure_layers(cell.spec, micro_refs, micro);
      } catch (const std::exception& e) {
        ctx.gate.op(false, "layer replay " + cell.label + ": " + e.what());
      }
    }
    std::vector<double> sweep_load, sweep_store;
    if (ctx.w.kind == Kind::kSweep && !untraced.empty()) {
      probe_result_cache(ctx, untraced.back(), sweep_load, sweep_store);
    }
    metrics = per_layer(ctx, untraced, traced, seeding, micro, sweep_load,
                        sweep_store);
  }

  if (!args.spans.empty()) {
    std::FILE* f = std::fopen(args.spans.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + args.spans);
    for (const Pass& p : traced) {
      for (const auto& t : p.cell_tracers) t->write_jsonl(f, ctx.w.name);
      for (const auto& t : p.other_tracers) t->write_jsonl(f, ctx.w.name);
    }
    for (const auto& t : seeding.other_tracers) t->write_jsonl(f, ctx.w.name);
    std::fclose(f);
  }
  if (!args.report.empty()) {
    write_report(ctx, args.report, raw_setups, untraced, traced, metrics);
  }
  print_result(ctx.gate, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
