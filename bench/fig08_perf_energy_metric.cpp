// Figure 8 — the performance-energy metric: speedup x total-energy
// improvement, both relative to Base (higher is better).
//
// Paper result: ReDHiP is by far the best trade-off (~1.3 average), ahead of
// both CBF and Phased Cache, at 0.78% of LLC storage.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  const std::vector<SchemeColumn> columns = {
      {"Base", Scheme::kBase},
      {"CBF", Scheme::kCbf},
      {"Phased", Scheme::kPhased},
      {"ReDHiP", Scheme::kRedhip},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Figure 8 — performance-energy metric vs Base (higher = better)\n");
  TablePrinter t({"benchmark", "CBF", "Phased", "ReDHiP"});
  std::vector<std::vector<double>> metric(columns.size() - 1);
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const Comparison cmp = compare(results[b][0], results[b][c]);
      metric[c - 1].push_back(cmp.perf_energy_metric);
      row.push_back(fixed(cmp.perf_energy_metric, 3));
    }
    t.add_row(std::move(row));
  }
  t.add_row({"average", fixed(mean(metric[0]), 3), fixed(mean(metric[1]), 3),
             fixed(mean(metric[2]), 3)});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf("\npaper: ReDHiP clearly best (~1.3 avg), CBF and Phased lower\n");

  // Also report the total-energy saving the paper headline quotes (22%).
  std::vector<double> total_saving;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    total_saving.push_back(
        1.0 - compare(results[b][0], results[b][3]).total_energy_ratio);
  }
  std::printf("ReDHiP total energy saving: %s (paper: ~22%%)\n",
              pct(mean(total_saving)).c_str());
  return 0;
}
