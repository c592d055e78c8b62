// Figure 7 — dynamic cache energy of Oracle, CBF, Phased Cache and ReDHiP,
// normalized to the Base configuration (lower is better).
//
// Paper result (averages): CBF ~82% (18% saving), Phased ~45% (55% saving),
// ReDHiP ~39% (61% saving), Oracle ~29% (71% saving); ReDHiP's prediction +
// recalibration overhead is under 1% of total dynamic energy.
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
      {"Base", Scheme::kBase},     {"Oracle", Scheme::kOracle},
      {"CBF", Scheme::kCbf},       {"Phased", Scheme::kPhased},
      {"ReDHiP", Scheme::kRedhip},
  };
  const auto results = run_matrix(opts, columns);

  std::printf("Figure 7 — dynamic energy normalized to Base (lower = better)\n");
  TablePrinter t({"benchmark", "Oracle", "CBF", "Phased", "ReDHiP"});
  std::vector<std::vector<double>> ratios(columns.size() - 1);
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const Comparison cmp = compare(results[b][0], results[b][c]);
      ratios[c - 1].push_back(cmp.dyn_energy_ratio);
      row.push_back(pct(cmp.dyn_energy_ratio));
    }
    t.add_row(std::move(row));
  }
  t.add_row({"average", pct(mean(ratios[0])), pct(mean(ratios[1])),
             pct(mean(ratios[2])), pct(mean(ratios[3]))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }

  // ReDHiP's own overhead share (prediction + recalibration), paper: <1%.
  std::vector<double> overhead;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const auto& e = results[b][4].energy;
    overhead.push_back((e.predictor_dynamic_j + e.recalibration_j) /
                       e.dynamic_total_j());
  }
  std::printf(
      "\nReDHiP prediction+recalibration overhead: %s of its dynamic energy "
      "(paper: <1%%)\n",
      pct(mean(overhead)).c_str());
  std::printf(
      "paper averages: Oracle 29%%, CBF 82%%, Phased 45%%, ReDHiP 39%%\n");
  return 0;
}
