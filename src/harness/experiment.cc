#include "harness/experiment.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"

namespace redhip {

ExperimentOptions ExperimentOptions::parse(const CliOptions& cli) {
  ExperimentOptions o;
  o.scale = static_cast<std::uint32_t>(cli.get_int("scale", 8));
  o.refs_per_core = cli.get_uint64("refs", 1'000'000);
  o.seed = cli.get_uint64("seed", 42);
  o.csv = cli.get_bool("csv", false);
  o.jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  reject_retired_flags(cli);
  o.trace_events = cli.get("trace-events", "");
  o.obs_epoch_refs = cli.get_uint64("obs-epoch", 100'000);
  o.cache_dir = cli.get("cache-dir", "");
  o.resume = cli.get_bool("resume", true);
  o.ckpt_dir = cli.get("ckpt-dir", "");
  o.ckpt_interval = cli.get_uint64("ckpt-interval", 0);
  o.cell_timeout = cli.get_double("cell-timeout", 0.0);
  REDHIP_CHECK_MSG(o.cell_timeout >= 0.0, "--cell-timeout must be >= 0");
  const std::string sample_mode = cli.get("sample-mode", "off");
  if (sample_mode == "interval") {
    o.sampling.mode = SampleMode::kInterval;
    // Defaults sized for paper-scale runs (>= 10M refs/core): the warmup
    // must rebuild the deep hierarchy's occupancy at the window's position,
    // which takes ~100k references — see DESIGN.md "Statistical sampling".
    o.sampling.period_refs = cli.get_uint64("sample-period", 1'000'000);
    o.sampling.window_refs = cli.get_uint64("sample-window", 10'000);
    o.sampling.warmup_refs = cli.get_uint64("sample-warmup", 100'000);
  } else {
    REDHIP_CHECK_MSG(sample_mode == "off",
                     "unknown --sample-mode: " + sample_mode);
  }
  REDHIP_CHECK_MSG(o.obs_epoch_refs > 0, "--obs-epoch must be positive");
  const std::string bench = cli.get("bench", "");
  if (bench.empty()) {
    o.benches = all_benchmarks();
  } else {
    for (BenchmarkId id : all_benchmarks()) {
      if (to_string(id) == bench) o.benches.push_back(id);
    }
    REDHIP_CHECK_MSG(!o.benches.empty(), "unknown benchmark: " + bench);
  }
  return o;
}

void reject_retired_flags(const CliOptions& cli) {
  // Unknown flags are otherwise ignored, so a removed flag would silently
  // run something other than what was asked for.
  if (cli.has("engine")) {
    Status(StatusCode::kInvalidArgument,
           "--engine is no longer supported: the simulator has one engine")
        .throw_if_error();
  }
}

std::string trace_file_name(BenchmarkId bench, const std::string& column) {
  std::string name = to_string(bench) + "-" + column;
  for (char& c : name) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '.' || c == '_' || c == '-';
    if (!keep) c = '_';
  }
  return name + ".jsonl";
}

std::string ckpt_file_name(BenchmarkId bench, const std::string& column) {
  std::string name = trace_file_name(bench, column);
  name.erase(name.size() - 6);  // ".jsonl"
  return name + ".ckpt";
}

double estimated_run_cost(BenchmarkId bench, Scheme scheme, bool prefetch) {
  // Working-set size is the dominant wall-time predictor: big footprints
  // miss deeper and walk more tag arrays per reference.  kMix runs one SPEC
  // profile per core, so charge it the mean SPEC footprint.
  double ws = 0.0;
  if (bench == BenchmarkId::kMix) {
    for (BenchmarkId id : spec_benchmarks()) {
      ws += static_cast<double>(traits_of(id).ws_bytes);
    }
    ws /= static_cast<double>(spec_benchmarks().size());
  } else {
    ws = static_cast<double>(traits_of(bench).ws_bytes);
  }
  double cost = ws;
  // Predictor schemes pay lookup/update work on every LLC-bound access.
  if (scheme != Scheme::kBase) cost *= 1.3;
  // The stride prefetcher adds issue + extra hierarchy traffic.
  if (prefetch) cost *= 1.15;
  return cost;
}

double estimated_run_cost(BenchmarkId bench, const SchemeColumn& column) {
  return estimated_run_cost(bench, column.scheme, column.prefetch);
}

double estimated_run_cost(const RunSpec& spec) {
  const double scale =
      static_cast<double>(std::max<std::uint32_t>(spec.scale, 1));
  return estimated_run_cost(spec.bench, spec.scheme, spec.prefetch) / scale *
         static_cast<double>(spec.refs_per_core);
}

std::vector<std::vector<SimResult>> run_matrix(
    const ExperimentOptions& opts, const std::vector<SchemeColumn>& columns,
    MatrixStats* stats, std::vector<std::vector<Status>>* cell_status) {
  const auto start = std::chrono::steady_clock::now();
  if (!opts.trace_events.empty()) {
    std::filesystem::create_directories(opts.trace_events);
  }
  if (!opts.ckpt_dir.empty()) {
    std::filesystem::create_directories(opts.ckpt_dir);
  }
  std::vector<std::vector<SimResult>> results(
      opts.benches.size(), std::vector<SimResult>(columns.size()));
  if (cell_status != nullptr) {
    cell_status->assign(opts.benches.size(),
                        std::vector<Status>(columns.size()));
  }
  // Longest-job-first: order the (bench, column) pairs by estimated cost so
  // the pool never finishes its queue with one slow straggler running
  // alone.  results[b][c] indexing is unaffected — only submission order
  // changes, and every run is independent.
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    for (std::size_t c = 0; c < columns.size(); ++c) cells.emplace_back(b, c);
  }
  // The whole-run estimate (working set x refs / scale) rather than the
  // per-reference one: a single run_matrix call holds scale and refs
  // constant, but the comparator must stay correct when callers reuse it
  // over mixed-scale cell lists (the sweep executor does).
  const auto cell_spec_for_cost = [&](const std::pair<std::size_t,
                                                      std::size_t>& cell) {
    RunSpec s;
    s.bench = opts.benches[cell.first];
    s.scheme = columns[cell.second].scheme;
    s.prefetch = columns[cell.second].prefetch;
    s.scale = opts.scale;
    s.refs_per_core = opts.refs_per_core;
    return s;
  };
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const auto& x, const auto& y) {
                     return estimated_run_cost(cell_spec_for_cost(x)) >
                            estimated_run_cost(cell_spec_for_cost(y));
                   });
  std::vector<std::function<void()>> tasks;
  const auto submit_time = std::chrono::steady_clock::now();
  for (const auto& cell : cells) {
    const std::size_t b = cell.first;
    const std::size_t c = cell.second;
    tasks.push_back([&, b, c, submit_time] {
      const double queue_wait =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        submit_time)
              .count();
      RunSpec spec;
      spec.bench = opts.benches[b];
      spec.scheme = columns[c].scheme;
      spec.inclusion = columns[c].inclusion;
      spec.prefetch = columns[c].prefetch;
      spec.scale = opts.scale;
      spec.refs_per_core = opts.refs_per_core;
      spec.seed = opts.seed;
      spec.sampling = opts.sampling;
      // A run aborted by the invariant auditor under a *transient*
      // injected fault (RecoveryPolicy::kAbortRetry) is retried a bounded
      // number of times with a reseeded fault stream — the simulated
      // workload stays bit-identical, only the fault sequence moves.
      // Deterministic (non-transient) faults and every other exception
      // propagate to the thread pool, which rethrows after the drain.
      // Per-cell event trace, one file per (bench, column).
      std::string trace_path;
      if (!opts.trace_events.empty()) {
        trace_path =
            (std::filesystem::path(opts.trace_events) /
             trace_file_name(opts.benches[b], columns[c].label))
                .string();
      }
      if (!opts.ckpt_dir.empty()) {
        spec.ckpt_path =
            (std::filesystem::path(opts.ckpt_dir) /
             ckpt_file_name(opts.benches[b], columns[c].label))
                .string();
        spec.ckpt_interval_refs = opts.ckpt_interval;
        spec.ckpt_restore = true;
      }
      spec.deadline_seconds = opts.cell_timeout;
      // A fault-reseeded attempt changes the config digest, so a restored
      // checkpoint from an earlier attempt naturally misses (wrong key) —
      // the retry cold-starts instead of replaying the aborted prefix.
      std::uint32_t fault_attempt = 0;
      bool deadline_retried = false;
      for (;;) {
        const auto base_tweak = columns[c].tweak;
        const std::uint64_t epoch_refs = opts.obs_epoch_refs;
        spec.tweak = [&base_tweak, &trace_path, epoch_refs,
                      fault_attempt](HierarchyConfig& hc) {
          if (base_tweak) base_tweak(hc);
          if (!trace_path.empty()) {
            hc.obs.enabled = true;
            hc.obs.epoch_refs = epoch_refs;
            hc.obs.trace_path = trace_path;
          }
          if (fault_attempt > 0) hc.fault.seed += fault_attempt * 0x9e3779b9ull;
        };
        try {
          results[b][c] = run_spec(spec);
          results[b][c].queue_wait_seconds = queue_wait;
          break;
        } catch (const TransientFaultError&) {
          if (++fault_attempt >= kMaxTransientAttempts) throw;
        } catch (const DeadlineExceededError& e) {
          // One retry: a timeout is usually host contention, not the cell.
          // The budget restarts with the attempt (measured from run_spec
          // entry), and an interval checkpoint from the aborted attempt —
          // same key — shortens the retry instead of restarting it.
          if (!deadline_retried) {
            deadline_retried = true;
            continue;
          }
          if (cell_status == nullptr) throw;
          (*cell_status)[b][c] = Status(StatusCode::kDeadlineExceeded,
                                        to_string(opts.benches[b]) + "/" +
                                            columns[c].label + ": " +
                                            e.what());
          break;
        }
      }
    });
  }
  ThreadPool::run_all(std::move(tasks), opts.jobs);
  if (stats != nullptr) {
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    stats->total_refs = 0;
    for (const auto& row : results) {
      for (const SimResult& r : row) stats->total_refs += r.total_refs;
    }
    stats->mrefs_per_s =
        stats->wall_seconds > 0.0
            ? static_cast<double>(stats->total_refs) / stats->wall_seconds /
                  1e6
            : 0.0;
  }
  return results;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<std::string> benchmark_row_labels(const ExperimentOptions& opts) {
  std::vector<std::string> labels;
  for (BenchmarkId id : opts.benches) labels.push_back(to_string(id));
  labels.push_back("average");
  return labels;
}

}  // namespace redhip
