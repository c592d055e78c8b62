// custom_machine — evaluate ReDHiP on a machine defined in a text file.
//
// Without arguments this writes a sample 3-level config to /tmp, loads it
// back, and runs a workload comparison on it; point --config at your own
// file to evaluate an arbitrary hierarchy (see harness/config_file.h for
// the format).
//
//   ./custom_machine [--config machine.cfg] [--bench milc] [--refs 200000]
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/file_io.h"
#include "harness/config_file.h"
#include "harness/report.h"
#include "harness/run.h"

using namespace redhip;

namespace {

const char* kSampleConfig = R"(# A 3-level embedded-class machine (not Table I):
# small private L1/L2 under a 16M shared LLC.
cores = 8
freq_ghz = 2.5
scheme = redhip
inclusion = inclusive

[level]
size = 16K
ways = 4

[level]
size = 128K
ways = 8

[level]
size = 16M
ways = 16
banks = 8
split_tags = true

[redhip]
table_bits = 1M
recal_interval = 250000
recal_mode = rolling
banks = 4
)";

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  std::string path = opts.get("config", "");
  const std::string bench_name = opts.get("bench", "milc");
  const std::uint64_t refs =
      static_cast<std::uint64_t>(opts.get_int("refs", 200'000));

  if (path.empty()) {
    path = "/tmp/redhip_sample_machine.cfg";
    // Atomic temp+rename: a concurrent run of this example never loads a
    // half-written sample.
    write_file_atomic(path, kSampleConfig).throw_if_error();
    std::printf("no --config given; wrote a sample 3-level machine to %s\n\n",
                path.c_str());
  }
  HierarchyConfig config = load_config_file(path);

  const BenchmarkId bench = benchmark_from_name(bench_name).value();

  std::printf("machine from %s:\n%s\n", path.c_str(),
              config_to_text(config).c_str());

  // Run Base and the configured scheme on this machine.  Workload working
  // sets follow --scale (independent of the machine definition).
  const std::uint32_t ws_scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 8));
  auto run_with = [&](Scheme scheme) {
    HierarchyConfig c = config;
    c.scheme = scheme;
    if (scheme == Scheme::kBase) {
      // The baseline leg of the comparison must be clean: any [fault] /
      // [audit] sections apply only to the scheme under evaluation.
      c.fault = FaultConfig{};
      c.audit = {};
    }
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId core = 0; core < c.cores; ++core) {
      traces.push_back(make_workload(bench, core, ws_scale, 42));
      cpis.push_back(workload_cpi_centi(bench, core));
    }
    MulticoreSimulator sim(c, std::move(traces), std::move(cpis));
    return sim.run(refs);
  };
  const SimResult base = run_with(Scheme::kBase);
  const SimResult pred = run_with(config.scheme);
  const Comparison cmp = compare(base, pred);

  TablePrinter t({"metric", "value"});
  t.add_row({"workload", to_string(bench)});
  t.add_row({"levels", std::to_string(config.num_levels())});
  t.add_row({"scheme", to_string(config.scheme)});
  t.add_row({"speedup vs Base", pct_delta(cmp.speedup)});
  t.add_row({"dynamic energy vs Base", pct(cmp.dyn_energy_ratio)});
  t.add_row({"total energy vs Base", pct(cmp.total_energy_ratio)});
  t.add_row({"bypasses", std::to_string(pred.predictor.predicted_absent)});
  t.print();
  return 0;
}
