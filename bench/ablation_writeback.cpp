// Ablation (beyond the paper) — writeback traffic.
//
// The paper's methodology ignores writebacks entirely (memory is a free
// data store).  With dirty-line tracking enabled, every dirty eviction
// charges a data write at the receiving level and every dirty LLC victim a
// memory write.  The question this bench answers: do ReDHiP's savings
// survive once the hierarchy also pays for the write traffic the paper
// ignored?  (They should — bypasses remove lookups, and writeback volume is
// scheme-independent to first order.)
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  auto wb = [](HierarchyConfig& c) { c.model_writebacks = true; };
  const std::vector<SchemeColumn> columns = {
      {"Base", Scheme::kBase},
      {"ReDHiP", Scheme::kRedhip},
      {"Base+wb", Scheme::kBase, InclusionPolicy::kInclusive, false, wb},
      {"ReDHiP+wb", Scheme::kRedhip, InclusionPolicy::kInclusive, false, wb},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Ablation — ReDHiP savings with and without writeback modeling\n");
  TablePrinter t({"benchmark", "dyn saving (no wb)", "dyn saving (wb)",
                  "wb/demand-miss", "mem writebacks"});
  std::vector<double> s0, s1;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const double save0 =
        1.0 - compare(results[b][0], results[b][1]).dyn_energy_ratio;
    const double save1 =
        1.0 - compare(results[b][2], results[b][3]).dyn_energy_ratio;
    s0.push_back(save0);
    s1.push_back(save1);
    const SimResult& wbrun = results[b][2];
    std::uint64_t wb_events = wbrun.memory_writebacks;
    for (const auto& lvl : wbrun.levels) wb_events += lvl.writebacks;
    const double per_miss =
        wbrun.demand_memory_accesses == 0
            ? 0.0
            : static_cast<double>(wb_events) /
                  static_cast<double>(wbrun.demand_memory_accesses);
    t.add_row({to_string(opts.benches[b]), pct(save0), pct(save1),
               fixed(per_miss, 2),
               std::to_string(wbrun.memory_writebacks)});
  }
  t.add_row({"average", pct(mean(s0)), pct(mean(s1)), "", ""});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: savings nearly unchanged — writeback volume is the same "
      "under every scheme, so it dilutes the ratio only slightly\n");
  return 0;
}
