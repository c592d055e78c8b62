// Section I motivation — "in a typical four-level cache hierarchy, lower
// level caches (L3 and L4) despite being accessed infrequently, can consume
// 80% of the total dynamic cache energy."
//
// Runs every workload under Base and prints the per-level share of dynamic
// energy next to the per-level share of accesses.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  const std::vector<SchemeColumn> columns = {{"Base", Scheme::kBase}};
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Section I motivation — dynamic energy vs access share per level "
      "(Base)\n");
  TablePrinter t({"benchmark", "L1 acc", "L3+L4 acc", "L1 energy",
                  "L2 energy", "L3 energy", "L4 energy", "L3+L4 energy"});
  std::vector<double> deep_energy;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const SimResult& r = results[b][0];
    const auto& e = r.energy.level_dynamic_j;
    const double total = r.energy.dynamic_total_j();
    std::uint64_t total_acc = 0;
    for (const auto& lv : r.levels) total_acc += lv.accesses;
    const double deep_acc =
        static_cast<double>(r.levels[2].accesses + r.levels[3].accesses) /
        static_cast<double>(total_acc);
    const double deep = (e[2] + e[3]) / total;
    deep_energy.push_back(deep);
    t.add_row({to_string(opts.benches[b]),
               pct(static_cast<double>(r.levels[0].accesses) /
                   static_cast<double>(total_acc)),
               pct(deep_acc), pct(e[0] / total), pct(e[1] / total),
               pct(e[2] / total), pct(e[3] / total), pct(deep)});
  }
  t.add_row({"average", "", "", "", "", "", "", pct(mean(deep_energy))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\npaper claim: L3+L4 consume ~80%% of dynamic cache energy despite "
      "being accessed infrequently\n");
  return 0;
}
