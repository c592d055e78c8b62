// trace_record_replay — the trace-file workflow end to end.
//
// Demonstrates how real traces plug into the simulator: record a workload's
// reference stream to the binary trace format (the same thing a pintool
// converter would produce), then replay the files through the simulator and
// verify the results are identical to the live-generator run.  This is the
// path a user takes to evaluate ReDHiP on their own application traces.
//
//   ./trace_record_replay [--bench soplex] [--scale 16] [--refs 100000]
//                         [--dir /tmp]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness/report.h"
#include "harness/run.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  const std::uint32_t scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 16));
  const std::uint64_t refs =
      static_cast<std::uint64_t>(opts.get_int("refs", 100'000));
  const std::string bench_name = opts.get("bench", "soplex");
  const std::string dir = opts.get("dir", "/tmp");

  const BenchmarkId bench = benchmark_from_name(bench_name).value();
  const HierarchyConfig config =
      HierarchyConfig::scaled(scale, Scheme::kRedhip);

  // --- Record: one trace file per core, as the paper's pintool produced.
  std::vector<std::string> paths;
  for (CoreId c = 0; c < config.cores; ++c) {
    const std::string path =
        dir + "/redhip_" + to_string(bench) + "_core" + std::to_string(c) +
        ".trace";
    auto live = make_workload(bench, c, scale, /*seed=*/42);
    TraceWriter writer(path);
    MemRef m;
    for (std::uint64_t i = 0; i < refs && live->next(m); ++i) {
      writer.append(m);
    }
    writer.finish();
    paths.push_back(path);
  }
  std::printf("recorded %u trace files (%llu refs each, %.1f MB total)\n",
              config.cores, static_cast<unsigned long long>(refs),
              static_cast<double>(config.cores * refs * 16) / 1e6);

  // --- Replay the files through the simulator.
  auto run_with = [&](bool from_files) {
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::uint32_t> cpis;
    for (CoreId c = 0; c < config.cores; ++c) {
      if (from_files) {
        traces.push_back(std::make_unique<FileTraceSource>(paths[c]));
      } else {
        traces.push_back(make_workload(bench, c, scale, 42));
      }
      cpis.push_back(workload_cpi_centi(bench, c));
    }
    MulticoreSimulator sim(config, std::move(traces), std::move(cpis));
    return sim.run(refs);
  };
  const SimResult live = run_with(false);
  const SimResult replay = run_with(true);

  TablePrinter t({"run", "exec cycles", "L1 hit", "bypasses", "dyn energy uJ"});
  auto row = [&](const char* name, const SimResult& r) {
    t.add_row({name, std::to_string(r.exec_cycles), pct(r.hit_rate(0)),
               std::to_string(r.predictor.predicted_absent),
               fixed(r.energy.dynamic_total_j() * 1e6, 2)});
  };
  row("live generator", live);
  row("file replay", replay);
  t.print();

  const bool identical = live.exec_cycles == replay.exec_cycles &&
                         live.predictor.predicted_absent ==
                             replay.predictor.predicted_absent;
  std::printf("\nreplay %s the live run bit-for-bit\n",
              identical ? "MATCHES" : "DIVERGES FROM");

  for (const auto& p : paths) std::remove(p.c_str());
  return identical ? 0 : 1;
}
