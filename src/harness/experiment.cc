#include "harness/experiment.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/check.h"

namespace redhip {
namespace {

// An unsigned flag within [lo, hi]; a sign, a malformed value or one out of
// range is INVALID_ARGUMENT naming the flag.
std::uint64_t get_bounded(const CliOptions& cli, const std::string& name,
                          std::uint64_t def, std::uint64_t lo,
                          std::uint64_t hi) {
  const std::uint64_t v = cli.get_uint64(name, def);
  if (v < lo || v > hi) {
    Status(StatusCode::kInvalidArgument,
           "--" + name + "=" + cli.get(name, "") + ": outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]")
        .throw_if_error();
  }
  return v;
}

}  // namespace

ExperimentOptions ExperimentOptions::parse(const CliOptions& cli) {
  ExperimentOptions o;
  o.scale = static_cast<std::uint32_t>(get_bounded(
      cli, "scale", 8, 1, std::numeric_limits<std::uint32_t>::max()));
  o.refs_per_core = cli.get_uint64("refs", 1'000'000);
  o.seed = cli.get_uint64("seed", 42);
  o.csv = cli.get_bool("csv", false);
  o.jobs = get_bounded(cli, "jobs", 0, 0, kMaxJobs);
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

namespace {

// Relative per-reference cost of one cell.
double per_ref_cost(BenchmarkId bench, Scheme scheme, bool prefetch) {
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

}  // namespace

double estimated_run_cost(const RunSpec& spec) {
  const double scale =
      static_cast<double>(std::max<std::uint32_t>(spec.scale, 1));
  return per_ref_cost(spec.bench, spec.scheme, spec.prefetch) / scale *
         static_cast<double>(spec.refs_per_core);
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
