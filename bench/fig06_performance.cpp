// Figure 6 — performance speedup of Oracle, CBF, Phased Cache and ReDHiP
// over the Base configuration (no prediction, parallel tag/data).
//
// Paper result (averages): Phased ~ -3%, CBF < +4%, ReDHiP ~ +8% (with its
// ~3% prediction overhead included), Oracle ~ +13%.
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

  std::printf("Figure 6 — speedup over Base (positive = faster)\n");
  TablePrinter t({"benchmark", "Oracle", "CBF", "Phased", "ReDHiP"});
  std::vector<std::vector<double>> speedups(columns.size() - 1);
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const Comparison cmp = compare(results[b][0], results[b][c]);
      speedups[c - 1].push_back(cmp.speedup);
      row.push_back(pct_delta(cmp.speedup));
    }
    t.add_row(std::move(row));
  }
  t.add_row({"average", pct_delta(mean(speedups[0])),
             pct_delta(mean(speedups[1])), pct_delta(mean(speedups[2])),
             pct_delta(mean(speedups[3]))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\npaper averages: Oracle +13%%, CBF <+4%%, Phased -3%%, ReDHiP +8%%\n");
  return 0;
}
