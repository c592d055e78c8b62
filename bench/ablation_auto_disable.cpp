// Ablation — the paper's §IV escape hatch: "In the case when the L1 cache
// miss rate is very low or the LLC is rarely used, our prediction mechanism
// would be disabled to not waste energy or add latency."
//
// Runs every workload with ReDHiP, with and without auto-disable.  On the
// paper's memory-hungry suite the gate should essentially never trigger
// (the mechanism stays useful); the final column shows a synthetic
// L1-resident workload where the gate eliminates the predictor's overhead.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  auto gate_on = [](HierarchyConfig& c) { c.auto_disable.enabled = true; };
  const std::vector<SchemeColumn> columns = {
      {"Base", Scheme::kBase},
      {"ReDHiP", Scheme::kRedhip},
      {"ReDHiP+gate", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       gate_on},
  };
  const auto results = run_matrix(opts, columns);

  std::printf("Ablation — §IV auto-disable gate on the evaluation suite\n");
  TablePrinter t({"benchmark", "speedup", "speedup+gate", "dyn energy",
                  "dyn energy+gate", "refs gated off"});
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const Comparison plain = compare(results[b][0], results[b][1]);
    const Comparison gated = compare(results[b][0], results[b][2]);
    const double gated_frac =
        static_cast<double>(results[b][2].predictor_disabled_refs) /
        static_cast<double>(results[b][2].total_refs);
    t.add_row({to_string(opts.benches[b]), pct_delta(plain.speedup),
               pct_delta(gated.speedup), pct(plain.dyn_energy_ratio),
               pct(gated.dyn_energy_ratio), pct(gated_frac)});
  }
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: on this memory-hungry suite the gate stays open (last "
      "column ~0%%) and results match plain ReDHiP; the gate exists for the "
      "L1-resident workloads the paper excluded from evaluation\n");
  return 0;
}
