// Ablation — batch vs rolling (incremental) recalibration.
//
// The paper's deployed design recalibrates incrementally ("an update for
// every table entry every 1 million L1 misses"); a batch rebuild at the end
// of each interval has the same aggregate cost but concentrates the stall
// and lets staleness accumulate for a full interval.  This bench compares
// the two at the same interval: accuracy (bypass coverage, false positives),
// dynamic energy, and the worst-case stall a core observes.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  auto with_mode = [](RecalMode m) {
    return [m](HierarchyConfig& c) { c.redhip.recal_mode = m; };
  };
  const std::vector<SchemeColumn> columns = {
      {"Base", Scheme::kBase},
      {"batch", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       with_mode(RecalMode::kBatch)},
      {"rolling", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       with_mode(RecalMode::kRolling)},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Ablation — batch vs rolling recalibration (same interval, same "
      "aggregate work)\n");
  TablePrinter t({"benchmark", "dyn energy (batch)", "dyn energy (rolling)",
                  "bypass/miss (batch)", "bypass/miss (rolling)",
                  "stall cyc (batch)", "stall cyc (rolling)"});
  std::vector<double> eb, er;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const SimResult& base = results[b][0];
    const SimResult& batch = results[b][1];
    const SimResult& roll = results[b][2];
    auto bypass_rate = [](const SimResult& r) {
      return r.levels[0].misses == 0
                 ? 0.0
                 : static_cast<double>(r.predictor.predicted_absent) /
                       static_cast<double>(r.levels[0].misses);
    };
    const double e_b = compare(base, batch).dyn_energy_ratio;
    const double e_r = compare(base, roll).dyn_energy_ratio;
    eb.push_back(e_b);
    er.push_back(e_r);
    t.add_row({to_string(opts.benches[b]), pct(e_b), pct(e_r),
               pct(bypass_rate(batch)), pct(bypass_rate(roll)),
               std::to_string(batch.recal_stall_cycles),
               std::to_string(roll.recal_stall_cycles)});
  }
  t.add_row({"average", pct(mean(eb)), pct(mean(er)), "", "", "", ""});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: rolling matches or beats batch accuracy (staleness is "
      "bounded by one interval per set instead of peaking) with the same "
      "aggregate stall, spread thin\n");
  return 0;
}
