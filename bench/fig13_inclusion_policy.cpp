// Figure 13 — ReDHiP dynamic energy *savings* under the three cache
// inclusion policies: fully inclusive, hybrid (exclusive private levels,
// inclusive shared LLC) and fully exclusive.  Each policy's ReDHiP run is
// normalized to a Base run under the *same* policy ("comparisons are made
// between the same cache inclusion policies").
//
// Paper result: hybrid is indistinguishable from inclusive (ReDHiP is
// unchanged — it relies only on the LLC's inclusivity); fully exclusive
// needs a scaled PT per level, loses ~15% of the savings to the extra
// overhead and per-level aliasing, but still beats Base by >40%.
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
      {"Base/incl", Scheme::kBase, InclusionPolicy::kInclusive},
      {"ReDHiP/incl", Scheme::kRedhip, InclusionPolicy::kInclusive},
      {"Base/hybrid", Scheme::kBase, InclusionPolicy::kHybrid},
      {"ReDHiP/hybrid", Scheme::kRedhip, InclusionPolicy::kHybrid},
      {"Base/excl", Scheme::kBase, InclusionPolicy::kExclusive},
      {"ReDHiP/excl", Scheme::kRedhip, InclusionPolicy::kExclusive},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Figure 13 — ReDHiP dynamic energy savings per inclusion policy "
      "(vs Base under the same policy; higher = better)\n");
  TablePrinter t({"benchmark", "Inclusive", "Hybrid", "Exclusive"});
  std::vector<std::vector<double>> savings(3);
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    for (int p = 0; p < 3; ++p) {
      const Comparison cmp =
          compare(results[b][2 * p], results[b][2 * p + 1]);
      const double saving = 1.0 - cmp.dyn_energy_ratio;
      savings[p].push_back(saving);
      row.push_back(pct(saving));
    }
    t.add_row(std::move(row));
  }
  t.add_row({"average", pct(mean(savings[0])), pct(mean(savings[1])),
             pct(mean(savings[2]))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\npaper shape: hybrid ~= inclusive; exclusive ~15%% lower but still "
      ">40%% saving\n");
  return 0;
}
