// Figures 9 & 10 — per-level cache hit rates for every benchmark, in the
// base case (Fig. 9) and with ReDHiP applied (Fig. 10).
//
// Paper result: L1 is unaffected (prediction happens after L1 misses);
// ReDHiP raises the L2/L3/L4 hit rates by an average of 14%/12%/18% because
// accesses that would have missed everywhere are bypassed and never counted
// against the lower levels.
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
      {"ReDHiP", Scheme::kRedhip},
  };
  const auto results = run_matrix(opts, columns);

  for (std::size_t c = 0; c < columns.size(); ++c) {
    std::printf("Figure %s — per-level hit rates (%s)\n", c == 0 ? "9" : "10",
                columns[c].label.c_str());
    TablePrinter t({"benchmark", "L1", "L2", "L3", "L4", "offchip/L1miss"});
    std::vector<double> l1, l2, l3, l4, off;
    for (std::size_t b = 0; b < opts.benches.size(); ++b) {
      const SimResult& r = results[b][c];
      l1.push_back(r.hit_rate(0));
      l2.push_back(r.hit_rate(1));
      l3.push_back(r.hit_rate(2));
      l4.push_back(r.hit_rate(3));
      off.push_back(r.offchip_fraction());
      t.add_row({to_string(opts.benches[b]), pct(r.hit_rate(0)),
                 pct(r.hit_rate(1)), pct(r.hit_rate(2)), pct(r.hit_rate(3)),
                 pct(r.offchip_fraction())});
    }
    t.add_row({"average", pct(mean(l1)), pct(mean(l2)), pct(mean(l3)),
               pct(mean(l4)), pct(mean(off))});
    if (opts.csv) {
      t.print_csv();
    } else {
      t.print();
    }
    std::printf("\n");
  }

  // The delta the paper quotes: +14% / +12% / +18% for L2/L3/L4 on average.
  std::vector<double> d2, d3, d4;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    d2.push_back(results[b][1].hit_rate(1) - results[b][0].hit_rate(1));
    d3.push_back(results[b][1].hit_rate(2) - results[b][0].hit_rate(2));
    d4.push_back(results[b][1].hit_rate(3) - results[b][0].hit_rate(3));
  }
  std::printf(
      "average hit-rate improvement under ReDHiP:  L2 %+.1f%%  L3 %+.1f%%  "
      "L4 %+.1f%%   (paper: +14%% / +12%% / +18%%)\n",
      mean(d2) * 100.0, mean(d3) * 100.0, mean(d4) * 100.0);
  return 0;
}
