// Ablation (beyond the paper) — does ReDHiP's benefit depend on the LLC
// replacement policy?  The recalibration design only assumes a tag array it
// can scan, so the savings should be robust across LRU / tree-PLRU / NRU /
// random replacement.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  ExperimentOptions opts = ExperimentOptions::parse(cli);

  const std::vector<std::pair<std::string, ReplacementKind>> policies = {
      {"LRU", ReplacementKind::kLru},
      {"PLRU", ReplacementKind::kTreePlru},
      {"NRU", ReplacementKind::kNru},
      {"random", ReplacementKind::kRandom},
  };
  std::vector<SchemeColumn> columns;
  for (const auto& [label, kind] : policies) {
    auto tweak = [kind = kind](HierarchyConfig& c) {
      for (auto& lvl : c.levels) lvl.geom.replacement = kind;
    };
    columns.push_back({"Base/" + label, Scheme::kBase,
                       InclusionPolicy::kInclusive, false, tweak});
    columns.push_back({"ReDHiP/" + label, Scheme::kRedhip,
                       InclusionPolicy::kInclusive, false, tweak});
  }
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Ablation — ReDHiP dynamic energy saving per replacement policy "
      "(each vs Base under the same policy)\n");
  std::vector<std::string> headers{"benchmark"};
  for (const auto& [label, kind] : policies) headers.push_back(label);
  TablePrinter t(headers);
  std::vector<std::vector<double>> savings(policies.size());
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const Comparison cmp =
          compare(results[b][2 * p], results[b][2 * p + 1]);
      const double saving = 1.0 - cmp.dyn_energy_ratio;
      savings[p].push_back(saving);
      row.push_back(pct(saving));
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (auto& s : savings) avg.push_back(pct(mean(s)));
  t.add_row(std::move(avg));
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf("\nexpected: savings roughly policy-independent\n");
  return 0;
}
