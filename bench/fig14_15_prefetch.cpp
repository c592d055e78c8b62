// Figures 14 & 15 — interaction with hardware stride prefetching: SP only,
// ReDHiP only, and SP+ReDHiP, against a Base with neither.
//
// Paper result: performance benefits are complementary and effectively
// additive (prefetching accelerates the predictable accesses, ReDHiP the
// unpredictable ones); energy-wise prefetching is costly (can exceed Base)
// while ReDHiP saves, so the combination lands in between.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  std::vector<SchemeColumn> columns = {
      {"Base", Scheme::kBase},
      {"SP", Scheme::kBase, InclusionPolicy::kInclusive, /*prefetch=*/true},
      {"ReDHiP", Scheme::kRedhip},
      {"SP+ReDHiP", Scheme::kRedhip, InclusionPolicy::kInclusive, true},
  };
  const auto results = run_matrix(opts, columns);

  std::printf("Figure 14 — speedup over Base\n");
  TablePrinter perf({"benchmark", "SP only", "ReDHiP only", "SP+ReDHiP"});
  std::printf("(energy table follows)\n\n");
  TablePrinter energy({"benchmark", "SP only", "ReDHiP only", "SP+ReDHiP"});
  std::vector<std::vector<double>> sp(3), en(3);
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> prow{to_string(opts.benches[b])};
    std::vector<std::string> erow{to_string(opts.benches[b])};
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const Comparison cmp = compare(results[b][0], results[b][c]);
      sp[c - 1].push_back(cmp.speedup);
      en[c - 1].push_back(cmp.dyn_energy_ratio);
      prow.push_back(pct_delta(cmp.speedup));
      erow.push_back(pct(cmp.dyn_energy_ratio));
    }
    perf.add_row(std::move(prow));
    energy.add_row(std::move(erow));
  }
  perf.add_row({"average", pct_delta(mean(sp[0])), pct_delta(mean(sp[1])),
                pct_delta(mean(sp[2]))});
  energy.add_row({"average", pct(mean(en[0])), pct(mean(en[1])),
                  pct(mean(en[2]))});
  if (opts.csv) {
    perf.print_csv();
  } else {
    perf.print();
  }
  std::printf(
      "\nFigure 15 — dynamic energy normalized to Base (lower = better)\n");
  if (opts.csv) {
    energy.print_csv();
  } else {
    energy.print();
  }

  // Prefetcher effectiveness, for context.
  const auto& pf = results[0][1].prefetch;
  std::printf(
      "\nprefetcher on %s: issued %llu, useful %llu, useless %llu, "
      "redundant %llu\n",
      to_string(opts.benches[0]).c_str(),
      static_cast<unsigned long long>(pf.issued),
      static_cast<unsigned long long>(pf.useful),
      static_cast<unsigned long long>(pf.useless),
      static_cast<unsigned long long>(pf.redundant));
  std::printf(
      "paper shape: perf additive when combined; combined energy between SP "
      "cost and ReDHiP saving\n");
  return 0;
}
