// Extension — the partial-tag mirror baseline (related work [17]/[30])
// against CBF and ReDHiP at their evaluated design points.
//
// The partial-tag mirror never goes stale (it tracks evictions exactly) and
// its only false positives are partial-tag collisions inside one set, but
// it costs ~2x ReDHiP's area and reads `ways` entries per lookup.  This
// bench puts the three real predictors side by side on speed, energy and
// bypass coverage, with the Oracle as the ceiling.
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
      {"ReDHiP", Scheme::kRedhip},
      {"PartialTag", Scheme::kPartialTag},
      {"Oracle", Scheme::kOracle},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Extension — partial-tag mirror vs CBF vs ReDHiP (Oracle = ceiling)\n");
  TablePrinter t({"benchmark", "CBF perf", "ReDHiP perf", "PTag perf",
                  "CBF dyn", "ReDHiP dyn", "PTag dyn", "Oracle dyn"});
  std::vector<double> perf[3], dyn[4];
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    Comparison cmp[4];
    for (int c = 0; c < 4; ++c) {
      cmp[c] = compare(results[b][0], results[b][c + 1]);
    }
    for (int c = 0; c < 3; ++c) perf[c].push_back(cmp[c].speedup);
    for (int c = 0; c < 4; ++c) dyn[c].push_back(cmp[c].dyn_energy_ratio);
    row.push_back(pct_delta(cmp[0].speedup));
    row.push_back(pct_delta(cmp[1].speedup));
    row.push_back(pct_delta(cmp[2].speedup));
    for (int c = 0; c < 4; ++c) row.push_back(pct(cmp[c].dyn_energy_ratio));
    t.add_row(std::move(row));
  }
  t.add_row({"average", pct_delta(mean(perf[0])), pct_delta(mean(perf[1])),
             pct_delta(mean(perf[2])), pct(mean(dyn[0])), pct(mean(dyn[1])),
             pct(mean(dyn[2])), pct(mean(dyn[3]))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }

  // Area accounting for the trade-off discussion.
  const HierarchyConfig c = HierarchyConfig::scaled(opts.scale, Scheme::kRedhip);
  const double llc_bytes = static_cast<double>(c.llc().geom.size_bytes);
  const double pt_pct = 100.0 * static_cast<double>(c.redhip.table_bits) / 8 /
                        llc_bytes;
  const double ptag_pct =
      100.0 *
      static_cast<double>(c.llc().geom.lines() *
                          (c.partial_tag.partial_bits + 1)) /
      8 / llc_bytes;
  std::printf(
      "\narea: ReDHiP %.2f%% of LLC, partial-tag mirror %.2f%% — the mirror "
      "buys freedom from recalibration at ~%.1fx the storage\n",
      pt_pct, ptag_pct, ptag_pct / pt_pct);
  return 0;
}
