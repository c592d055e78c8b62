// bench_speed — end-to-end simulation speed benchmark (BENCH_speed.json).
//
// Runs the base + redhip columns over the full workload list and reports
// per-run and aggregate host throughput in simulated Mrefs/s (the
// `fast_engine` block).  Simulated correctness is the tests' job (the
// whole-hierarchy model in tests/model); this binary only times.
//
// `--repeat=N` measures the matrix N times and reports best-of-N (the
// headline `matrix_wall_seconds`: least-interference estimate) alongside
// median-of-N (`matrix_wall_seconds_median`: typical-run estimate, robust
// to one quiet outlier in either direction).  Results are identical across
// repeats by determinism; only wall time varies.  The same min/median pair
// is carried per run: every `runs[]` row reports `host_seconds` (min over
// repeats) next to `host_seconds_median`, and the matching `mrefs_per_s` /
// `mrefs_per_s_median`, so one noisy cell cannot masquerade as a per-bench
// regression.
//
// `--pre-pr-wall <seconds>` additionally records a speedup against an
// externally measured wall time (scripts/bench_speed.sh passes the wall
// time of an older build measured on the same machine).
//
// `--cpu-model` / `--compiler-flags` land verbatim in the config block so
// a committed BENCH_speed.json names the host that produced it
// (scripts/bench_speed.sh fills both; the compiler version itself is baked
// in at build time).
//
// A second leg re-measures the matrix with periodic checkpointing on
// (src/ckpt, interval from --ckpt-interval) and reports the crash-safety
// tax as `ckpt.overhead_pct`, budgeted at <= 2%: the fraction of the run's
// own process-CPU time spent inside save_checkpoint (which self-times on
// the saving thread's CPU clock).
// Checkpointing must not change a single statistic, so the leg is also
// checked cell-by-cell against the uninstrumented run.
//
// A third, opt-in leg (--sampled-refs=N) measures SMARTS-style interval
// sampling: one long exact run against the same spec sampled
// (--sampled-bench/-period/-window/-warmup), reported as `sampling` in the
// JSON.  The sampled run's 95% CIs must cover the exact run's IPC, L1 hit
// rate and total energy or the benchmark fails; --sampled-min-speedup=X
// additionally gates the wall-clock ratio (the committed BENCH_speed.json
// carries the 500M-ref configuration from scripts/bench_speed.sh).
//
// The same leg then measures warm-state snapshot reuse — the sweep
// scenario the shareable window snapshots exist for: a seeding run of the
// identical cell drops geometrically spaced warm snapshots, and a second
// run restores the deepest one, skipping every skip/warm phase before it.
// The resumed run must reproduce the cold run's SamplingReport bit for bit
// (run.cc's resume contract, pinned by tests/ckpt_restore_test.cc) and its
// wall-clock ratio is gated by --sampled-min-resumed-speedup.
//
// The matrix runs on run_matrix (sweep/sweep.h), but `--cache-dir` is
// rejected with INVALID_ARGUMENT: a warm cache would turn the timed legs
// into cache reads.
//
// Usage: bench_speed [--scale=8] [--refs=1000000] [--seed=42] [--jobs=N]
//                    [--repeat=N] [--out=BENCH_speed.json]
//                    [--cpu-model=TEXT] [--compiler-flags=TEXT]
//                    [--pre-pr-wall=SECONDS] [--pre-pr-note=TEXT]
//                    [--skip-ckpt]
//                    [--ckpt-interval=REFS] [--ckpt-budget-pct=2.0]
//                    [--sampled-refs=N] [--sampled-bench=mcf]
//                    [--sampled-period=N] [--sampled-window=N]
//                    [--sampled-warmup=N] [--sampled-min-speedup=X]
//                    [--sampled-min-resumed-speedup=X]
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_io.h"
#include "common/cli.h"
#include "common/file_io.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "sim/sampling.h"
#include "sim/stats.h"
#include "sweep/sweep.h"

using namespace redhip;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One leg measured --repeat times: the first repeat's results (for the
// identity checks; repeats are bit-identical) plus every repeat's wall
// clock — aggregate and per cell, so `runs[]` can report min/median pairs.
struct Leg {
  std::vector<std::vector<SimResult>> results;
  std::vector<SweepStats> reps;
  // cell_seconds[bench][column][repeat]: per-cell host wall clock of every
  // repeat.  The SimResults themselves are bit-identical across repeats, so
  // only the timing is worth keeping more than once.
  std::vector<std::vector<std::vector<double>>> cell_seconds;

  const SweepStats& best() const {
    std::size_t bi = 0;
    for (std::size_t i = 1; i < reps.size(); ++i) {
      if (reps[i].wall_seconds < reps[bi].wall_seconds) bi = i;
    }
    return reps[bi];
  }
  double median_wall() const {
    std::vector<double> w;
    for (const SweepStats& s : reps) w.push_back(s.wall_seconds);
    return median_of(std::move(w));
  }
  // Simulated references of one repeat (every repeat simulates the same).
  std::uint64_t total_refs() const {
    std::uint64_t n = 0;
    for (const auto& row : results) {
      for (const SimResult& r : row) n += r.total_refs;
    }
    return n;
  }
  // Aggregate throughput of the best repeat.
  double mrefs_per_s() const {
    const double wall = best().wall_seconds;
    return wall > 0.0 ? static_cast<double>(total_refs()) / wall / 1e6 : 0.0;
  }
};

Leg measure(const ExperimentOptions& opts,
            const std::vector<SchemeColumn>& columns, std::uint32_t repeat) {
  Leg leg;
  for (std::uint32_t r = 0; r < repeat; ++r) {
    SweepStats stats;
    auto results = run_matrix(opts, columns, &stats);
    if (r == 0) leg.cell_seconds.resize(results.size());
    for (std::size_t b = 0; b < results.size(); ++b) {
      if (r == 0) leg.cell_seconds[b].resize(results[b].size());
      for (std::size_t c = 0; c < results[b].size(); ++c) {
        leg.cell_seconds[b][c].push_back(results[b][c].host_seconds);
      }
    }
    if (r == 0) leg.results = std::move(results);
    leg.reps.push_back(stats);
  }
  std::printf("matrix:           %.3fs best / %.3fs median of %u  "
              "(%.3f Mrefs/s)\n",
              leg.best().wall_seconds, leg.median_wall(), repeat,
              leg.mrefs_per_s());
  return leg;
}

bool check_identical(const ExperimentOptions& opts,
                     const std::vector<SchemeColumn>& columns,
                     const Leg& a, const Leg& b,
                     const char* a_name, const char* b_name) {
  for (std::size_t bi = 0; bi < opts.benches.size(); ++bi) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (!stats_identical(a.results[bi][c], b.results[bi][c])) {
        std::fprintf(stderr, "FAIL: %s/%s results differ for %s/%s\n",
                     a_name, b_name, to_string(opts.benches[bi]).c_str(),
                     columns[c].label.c_str());
        return false;
      }
    }
  }
  return true;
}

void append_matrix_block(std::ostringstream& os,
                         const ExperimentOptions& opts,
                         const std::vector<SchemeColumn>& columns,
                         const Leg& leg) {
  os << "  \"fast_engine\": {\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    \"matrix_wall_seconds\": %.3f,\n"
                "    \"matrix_wall_seconds_median\": %.3f,\n"
                "    \"repeats\": %zu,\n"
                "    \"total_refs\": %llu,\n"
                "    \"mrefs_per_s\": %.3f,\n",
                leg.best().wall_seconds, leg.median_wall(), leg.reps.size(),
                static_cast<unsigned long long>(leg.total_refs()),
                leg.mrefs_per_s());
  os << buf;
  os << "    \"runs\": [\n";
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const SimResult& r = leg.results[b][c];
      // Per-cell min/median over every repeat.  The simulated work of one
      // cell is repeat-invariant (Mrefs = rate * seconds of any repeat), so
      // the throughput pair is that work over the min/median wall clock.
      const std::vector<double>& secs = leg.cell_seconds[b][c];
      const double sec_min = *std::min_element(secs.begin(), secs.end());
      const double sec_med = median_of(secs);
      const double cell_mrefs = r.host_mrefs_per_s * r.host_seconds;
      std::snprintf(buf, sizeof(buf),
                    "      {\"bench\": \"%s\", \"column\": \"%s\", "
                    "\"host_seconds\": %.3f, \"host_seconds_median\": %.3f, "
                    "\"mrefs_per_s\": %.3f, \"mrefs_per_s_median\": %.3f}%s\n",
                    to_string(opts.benches[b]).c_str(),
                    columns[c].label.c_str(), sec_min, sec_med,
                    sec_min > 0.0 ? cell_mrefs / sec_min : 0.0,
                    sec_med > 0.0 ? cell_mrefs / sec_med : 0.0,
                    (b + 1 == opts.benches.size() && c + 1 == columns.size())
                        ? ""
                        : ",");
      os << buf;
    }
  }
  os << "    ]\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  ExperimentOptions opts = ExperimentOptions::parse(cli);
  // Every leg must simulate: a result cache would turn the timed matrix
  // into cache reads.
  if (!opts.cache_dir.empty()) {
    Status(StatusCode::kInvalidArgument,
           "--cache-dir: bench_speed times simulation and takes no result "
           "cache")
        .throw_if_error();
  }
  const std::string out_path = cli.get("out", "BENCH_speed.json");
  const double pre_pr_wall = cli.get_double("pre-pr-wall", 0.0);
  const std::string pre_pr_note = cli.get("pre-pr-note", "");
  const bool skip_ckpt = cli.get_bool("skip-ckpt", false);
  // Default: one mid-run save per 8M-ref bench cell (the previous 4M
  // default fired twice per cell and recorded 3.33% under the old paired
  // plain-vs-ckpt measurement, busting the <= 2% budget the feature is sold
  // under — enforced below via --ckpt-budget-pct).  A save is a few ms
  // (bulk little-endian serialize + checksum + atomic write of a ~2MB file
  // at scale 8), so one save per cell lands well under budget while still
  // writing a real checkpoint in every cell; crank the interval down only
  // when a tighter kill -9 loss bound is worth measuring.
  const std::uint64_t ckpt_interval =
      cli.get_uint64("ckpt-interval", 6'000'000);
  // The crash-safety tax is a budget, not a observation: breach it and the
  // benchmark fails.  0 disables the gate (noisy-host escape hatch).
  const double ckpt_budget_pct = cli.get_double("ckpt-budget-pct", 2.0);
  const std::uint32_t repeat = static_cast<std::uint32_t>(
      std::max<long long>(1, cli.get_int("repeat", 1)));
  const std::string cpu_model = cli.get("cpu-model", "unknown");
  const std::string compiler_flags = cli.get("compiler-flags", "");

  std::vector<SchemeColumn> columns(2);
  columns[0].label = "base";
  columns[0].scheme = Scheme::kBase;
  columns[1].label = "redhip";
  columns[1].scheme = Scheme::kRedhip;

  std::printf(
      "bench_speed: scale=%u refs=%llu seed=%llu benches=%zu repeat=%u\n",
      opts.scale, static_cast<unsigned long long>(opts.refs_per_core),
      static_cast<unsigned long long>(opts.seed), opts.benches.size(),
      repeat);

  const Leg fast = measure(opts, columns, repeat);

  // Crash-safety tax: the matrix again, now writing a checkpoint every
  // --ckpt-interval aggregate refs.  The directory is wiped before every
  // repeat so no repeat restores what the previous one wrote — each one
  // measures a full run including every checkpoint write.
  //
  // The overhead is measured *within* the checkpointing run:
  // save_checkpoint self-times on its thread's CPU clock (ckpt_profile_*),
  // and the tax is that save CPU as a fraction of the run's own process CPU
  // (every worker's), median over
  // repeats.  A paired plain-vs-checkpointing comparison across two runs —
  // wall clock or CPU time — cannot resolve a ~1% effect on a shared host:
  // run-to-run variance is an order of magnitude larger (paired CPU ratios
  // on this host swung from -15% to +7% across repeats of identical work).
  // The in-run fraction takes numerator and denominator from the same run,
  // so host noise cancels instead of masquerading as overhead.
  Leg ckpt;
  double ckpt_overhead_pct = 0.0;
  double ckpt_save_cpu_s = 0.0;
  std::uint64_t ckpt_saves = 0;
  if (!skip_ckpt) {
    const std::filesystem::path ckpt_dir =
        std::filesystem::temp_directory_path() / "redhip_bench_speed_ckpt";
    ExperimentOptions copts = opts;
    copts.ckpt_dir = ckpt_dir.string();
    copts.ckpt_interval = ckpt_interval;
    const auto cpu_now = [] {
      return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
    };
    std::vector<double> fractions;
    for (std::uint32_t r = 0; r < repeat; ++r) {
      std::filesystem::remove_all(ckpt_dir);
      ckpt_profile_reset();
      SweepStats stats;
      const double c0 = cpu_now();
      auto results = run_matrix(copts, columns, &stats);
      const double ckpt_cpu = cpu_now() - c0;
      if (r == 0) {
        ckpt.results = std::move(results);
        ckpt_saves = ckpt_profile_save_count();
        ckpt_save_cpu_s = ckpt_profile_save_cpu_seconds();
      }
      ckpt.reps.push_back(stats);
      if (ckpt_cpu > 0.0) {
        fractions.push_back(ckpt_profile_save_cpu_seconds() / ckpt_cpu);
      }
    }
    std::filesystem::remove_all(ckpt_dir);
    if (!fractions.empty()) {
      std::sort(fractions.begin(), fractions.end());
      ckpt_overhead_pct = fractions[fractions.size() / 2] * 100.0;
    }
    std::printf("matrix + ckpt:    %.3fs best / %.3fs median of %u  "
                "(%llu saves, %.3fs save cpu, overhead %.2f%%, interval "
                "%llu refs)\n",
                ckpt.best().wall_seconds, ckpt.median_wall(), repeat,
                static_cast<unsigned long long>(ckpt_saves), ckpt_save_cpu_s,
                ckpt_overhead_pct,
                static_cast<unsigned long long>(ckpt_interval));
    // Checkpointing must be invisible in the statistics — a perturbed run
    // would make the overhead number (and the feature) meaningless.
    if (!check_identical(opts, columns, fast, ckpt, "plain", "ckpt")) {
      return 1;
    }
    if (ckpt_budget_pct > 0.0 && ckpt_overhead_pct > ckpt_budget_pct) {
      std::fprintf(stderr,
                   "FAIL: checkpoint overhead %.2f%% exceeds the %.2f%% "
                   "budget (interval %llu refs) — raise --ckpt-interval or "
                   "make saves cheaper\n",
                   ckpt_overhead_pct, ckpt_budget_pct,
                   static_cast<unsigned long long>(ckpt_interval));
      return 1;
    }
  }

  // Statistical-sampling leg (opt-in via --sampled-refs): one long exact
  // run vs the same spec under interval sampling.
  // Reported in the JSON as `sampling` and *enforced*: the sampled run's
  // 95% CIs must cover the exact run's IPC, L1 hit rate and total energy
  // (both runs are deterministic, so this gate cannot flake on a committed
  // configuration), and when --sampled-min-speedup is given the wall-clock
  // ratio must clear it.  scripts/bench_speed.sh passes a 500M-ref spec
  // with --sampled-min-speedup=10 — the headline claim of sampled mode.
  const std::uint64_t sampled_refs = cli.get_uint64("sampled-refs", 0);
  std::ostringstream sampling_json;
  if (sampled_refs > 0) {
    RunSpec sspec;
    for (BenchmarkId id : all_benchmarks()) {
      if (to_string(id) == cli.get("sampled-bench", "mcf")) sspec.bench = id;
    }
    sspec.scheme = Scheme::kRedhip;
    sspec.scale = opts.scale;
    sspec.refs_per_core = sampled_refs;
    sspec.seed = opts.seed;
    const SimResult exact = run_spec(sspec);
    sspec.sampling.mode = SampleMode::kInterval;
    // The warmup must rebuild deep-hierarchy occupancy at each window's
    // position (~100k refs — DESIGN.md "Statistical sampling"; pushing it
    // further over-warms and leaves a positive energy bias that a long
    // run's narrow CI no longer hides).  The period is then sized to keep
    // the warmed+measured duty cycle under ~2% so the skip path's
    // economics dominate the wall-clock ratio, while still leaving ~10
    // windows at the 500M-ref headline spec.
    sspec.sampling.period_refs =
        cli.get_uint64("sampled-period", 6'000'000);
    sspec.sampling.window_refs = cli.get_uint64("sampled-window", 10'000);
    sspec.sampling.warmup_refs = cli.get_uint64("sampled-warmup", 100'000);
    const SimResult sampled = run_spec(sspec);

    const double exact_ipc =
        static_cast<double>(exact.total_refs) *
        static_cast<double>(exact.core_cycles.size()) /
        static_cast<double>(exact.total_core_cycles);
    const double exact_hit = exact.hit_rate(0);
    const double exact_energy = exact.energy.total_j();
    const double speedup = sampled.host_seconds > 0.0
                               ? exact.host_seconds / sampled.host_seconds
                               : 0.0;
    const SamplingReport& sr = sampled.sampling;
    std::printf("sampled vs exact: %.3fs -> %.3fs (%.1fx, %llu windows, "
                "ipc %.4f+-%.4f vs %.4f)\n",
                exact.host_seconds, sampled.host_seconds, speedup,
                static_cast<unsigned long long>(sr.windows), sr.ipc.mean,
                sr.ipc.ci95_half, exact_ipc);
    bool covered = true;
    const struct {
      const char* name;
      const MetricEstimate* est;
      double truth;
    } checks[] = {{"ipc", &sr.ipc, exact_ipc},
                  {"l1_hit_rate", &sr.l1_hit_rate, exact_hit},
                  {"total_energy_j", &sr.total_energy_j, exact_energy}};
    for (const auto& c : checks) {
      if (!c.est->covers(c.truth)) {
        std::fprintf(stderr,
                     "FAIL: sampled %s CI [%.6g, %.6g] misses exact %.6g\n",
                     c.name, c.est->lo(), c.est->hi(), c.truth);
        covered = false;
      }
    }
    if (!covered) return 1;
    const double min_speedup = cli.get_double("sampled-min-speedup", 0.0);
    if (min_speedup > 0.0 && speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: sampled speedup %.2fx below the required %.2fx\n",
                   speedup, min_speedup);
      return 1;
    }

    // Warm-state snapshot reuse: seed the cell's shareable window snapshots
    // with one checkpointing run, then measure a second run of the same
    // cell restoring the deepest snapshot.  This is the steady-state cost
    // of a sampled cell inside a sweep (every cell after the first shares
    // the warm prefix), so it is measured and gated separately from the
    // cold number above.
    const std::filesystem::path snap_dir =
        std::filesystem::temp_directory_path() / "redhip_bench_speed_snap";
    std::filesystem::remove_all(snap_dir);
    std::filesystem::create_directories(snap_dir);
    RunSpec rspec = sspec;
    rspec.ckpt_path = (snap_dir / "cell.ckpt").string();
    rspec.ckpt_restore = true;
    const SimResult seeded = run_spec(rspec);   // cold, drops snapshots
    const SimResult resumed = run_spec(rspec);  // restores the deepest one
    std::filesystem::remove_all(snap_dir);
    // Deepest snapshot index: largest w with w+1 a power of two below the
    // window count (the save spacing in harness/run.cc).
    std::uint64_t resumed_from = 0;
    for (std::uint64_t w = 0; w * 2 + 1 < sr.windows; w = w * 2 + 1) {
      resumed_from = w * 2 + 1;
    }
    const double resumed_speedup =
        resumed.host_seconds > 0.0
            ? exact.host_seconds / resumed.host_seconds
            : 0.0;
    std::printf("sampled resumed:  %.3fs -> %.3fs (%.1fx vs exact, "
                "restored at window %llu of %llu)\n",
                sampled.host_seconds, resumed.host_seconds, resumed_speedup,
                static_cast<unsigned long long>(resumed_from),
                static_cast<unsigned long long>(sr.windows));
    // Neither the snapshot writes nor the restore may change a single
    // estimate: all three runs are the same cell.
    if (!(seeded.sampling == sr) || !(resumed.sampling == sr)) {
      std::fprintf(stderr,
                   "FAIL: snapshot-seeded or resumed sampled run diverged "
                   "from the cold run's SamplingReport\n");
      return 1;
    }
    // The restore must actually have skipped the shared warm prefix, not
    // silently cold-started: the resumed run's warm phases cover only the
    // windows after the snapshot.
    if (resumed.warm_host_seconds >= seeded.warm_host_seconds) {
      std::fprintf(stderr,
                   "FAIL: resumed run warmed as much as the seeding run "
                   "(%.3fs vs %.3fs) — snapshot restore did not engage\n",
                   resumed.warm_host_seconds, seeded.warm_host_seconds);
      return 1;
    }
    const double min_resumed =
        cli.get_double("sampled-min-resumed-speedup", 0.0);
    if (min_resumed > 0.0 && resumed_speedup < min_resumed) {
      std::fprintf(stderr,
                   "FAIL: resumed sampled speedup %.2fx below the required "
                   "%.2fx\n",
                   resumed_speedup, min_resumed);
      return 1;
    }
    // Duty cycle: the fraction of the run actually simulated (warm +
    // window) rather than skipped.
    const std::uint64_t total_agg = sr.skipped_refs + sr.warmed_refs +
                                    sr.measured_refs;
    const double duty_cycle =
        total_agg > 0 ? static_cast<double>(sr.warmed_refs +
                                            sr.measured_refs) /
                            static_cast<double>(total_agg)
                      : 0.0;
    const double warm_mrefs_per_s =
        sampled.warm_host_seconds > 0.0
            ? static_cast<double>(sr.warmed_refs) /
                  sampled.warm_host_seconds / 1e6
            : 0.0;
    char sbuf[1536];
    std::snprintf(
        sbuf, sizeof(sbuf),
        ",\n  \"sampling\": {\n"
        "    \"bench\": \"%s\",\n    \"refs_per_core\": %llu,\n"
        "    \"period_refs\": %llu,\n    \"window_refs\": %llu,\n"
        "    \"warmup_refs\": %llu,\n"
        "    \"windows\": %llu,\n"
        "    \"duty_cycle\": %.6f,\n    \"warm_mrefs_per_s\": %.2f,\n"
        "    \"exact_wall_seconds\": %.3f,\n"
        "    \"sampled_wall_seconds\": %.3f,\n    \"speedup\": %.2f,\n"
        "    \"resumed_wall_seconds\": %.3f,\n"
        "    \"resumed_speedup\": %.2f,\n"
        "    \"resumed_from_window\": %llu,\n"
        "    \"exact\": {\"ipc\": %.6f, \"l1_hit_rate\": %.6f, "
        "\"total_energy_j\": %.6f},\n"
        "    \"estimate\": {\"ipc\": %.6f, \"ipc_ci95\": %.6f, "
        "\"l1_hit_rate\": %.6f, \"l1_hit_rate_ci95\": %.6f, "
        "\"total_energy_j\": %.6f, \"total_energy_j_ci95\": %.6f},\n"
        "    \"ci_covers_exact\": true\n  }",
        to_string(sspec.bench).c_str(),
        static_cast<unsigned long long>(sampled_refs),
        static_cast<unsigned long long>(sspec.sampling.period_refs),
        static_cast<unsigned long long>(sspec.sampling.window_refs),
        static_cast<unsigned long long>(sspec.sampling.warmup_refs),
        static_cast<unsigned long long>(sr.windows), duty_cycle,
        warm_mrefs_per_s, exact.host_seconds,
        sampled.host_seconds, speedup, resumed.host_seconds, resumed_speedup,
        static_cast<unsigned long long>(resumed_from),
        exact_ipc, exact_hit, exact_energy,
        sr.ipc.mean, sr.ipc.ci95_half, sr.l1_hit_rate.mean,
        sr.l1_hit_rate.ci95_half, sr.total_energy_j.mean,
        sr.total_energy_j.ci95_half);
    sampling_json << sbuf;
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"config\": {\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    \"scale\": %u,\n    \"refs_per_core\": %llu,\n"
                "    \"seed\": %llu,\n    \"jobs\": %zu,\n"
                "    \"repeat\": %u,\n",
                opts.scale,
                static_cast<unsigned long long>(opts.refs_per_core),
                static_cast<unsigned long long>(opts.seed), opts.jobs,
                repeat);
  os << buf;
  // Host metadata: the committed BENCH_speed.json must name the machine and
  // toolchain behind its numbers, or the numbers are unreproducible trivia.
  os << "    \"cpu_model\": \"" << json_escape(cpu_model) << "\",\n";
  os << "    \"host_cores\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "    \"compiler_version\": \"" << json_escape(__VERSION__) << "\",\n";
  os << "    \"compiler_flags\": \"" << json_escape(compiler_flags)
     << "\",\n";
  os << "    \"columns\": [";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    os << (c ? ", " : "") << '"' << json_escape(columns[c].label) << '"';
  }
  os << "],\n    \"benches\": [";
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    os << (b ? ", " : "") << '"' << to_string(opts.benches[b]) << '"';
  }
  os << "]\n  },\n";
  append_matrix_block(os, opts, columns, fast);
  if (!skip_ckpt) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"ckpt\": {\n    \"interval_refs\": %llu,\n"
                  "    \"matrix_wall_seconds\": %.3f,\n"
                  "    \"saves\": %llu,\n"
                  "    \"save_cpu_seconds\": %.3f,\n"
                  "    \"overhead_pct\": %.2f\n  }",
                  static_cast<unsigned long long>(ckpt_interval),
                  ckpt.best().wall_seconds,
                  static_cast<unsigned long long>(ckpt_saves),
                  ckpt_save_cpu_s, ckpt_overhead_pct);
    os << buf;
  }
  os << sampling_json.str();
  if (pre_pr_wall > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"pre_pr\": {\n    \"wall_seconds\": %.3f,\n"
                  "    \"speedup_vs_pre_pr\": %.3f,\n",
                  pre_pr_wall,
                  fast.best().wall_seconds > 0.0
                      ? pre_pr_wall / fast.best().wall_seconds
                      : 0.0);
    os << buf;
    os << "    \"note\": \"" << json_escape(pre_pr_note) << "\"\n  }";
  }
  os << "\n}\n";

  // Atomic temp+rename: a committed BENCH_speed.json is never half-written.
  const Status wst = write_file_atomic(out_path, os.str());
  if (!wst.ok()) {
    std::fprintf(stderr, "%s\n", wst.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (pre_pr_wall > 0.0 && fast.best().wall_seconds > 0.0) {
    std::printf("speedup vs pre-PR build: %.2fx\n",
                pre_pr_wall / fast.best().wall_seconds);
  }
  return 0;
}
