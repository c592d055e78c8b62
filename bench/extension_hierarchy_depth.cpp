// Extension — ReDHiP's benefit as a function of hierarchy depth.
//
// The paper's motivation is a trend: hierarchies are getting deeper (Fig. 1
// charts L1..L4 appearing over 25 years), and every added level makes a
// doomed walk more expensive.  This bench quantifies that: the same
// workloads on 2-, 3-, 4- (Table I) and 5-level machines, Base vs ReDHiP vs
// Oracle, with the PT re-derived at 0.78% of whatever the LLC is.
//
// Expected: both the walk latency a bypass saves and the lookup energy it
// avoids grow with depth, so ReDHiP's advantage widens — the 5-level column
// extrapolates the paper's own argument one step past its evaluation.
#include <cstdio>

#include "common/cli.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  ExperimentOptions opts = ExperimentOptions::parse(cli);
  // Workload generation is depth-independent; the hierarchy is swapped
  // underneath via the tweak hook.
  std::printf(
      "Extension — speedup and dynamic-energy saving vs hierarchy depth\n");
  TablePrinter t({"depth", "Oracle speedup", "ReDHiP speedup",
                  "ReDHiP dyn saving", "walk latency/offchip miss"});

  SweepStats total_stats;
  for (std::uint32_t depth = 2; depth <= 5; ++depth) {
    const std::uint32_t scale = opts.scale;
    auto reshape = [depth, scale](HierarchyConfig& c) {
      const Scheme scheme = c.scheme;
      c = HierarchyConfig::with_depth(depth, scale, scheme);
    };
    const std::vector<SchemeColumn> columns = {
        {"Base", Scheme::kBase, InclusionPolicy::kInclusive, false, reshape},
        {"ReDHiP", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
         reshape},
        {"Oracle", Scheme::kOracle, InclusionPolicy::kInclusive, false,
         reshape},
    };
    SweepStats sweep_stats;
    const auto results = run_matrix(opts, columns, &sweep_stats);
    total_stats.cells += sweep_stats.cells;
    total_stats.cache_hits += sweep_stats.cache_hits;
    total_stats.simulated += sweep_stats.simulated;
    total_stats.wall_seconds += sweep_stats.wall_seconds;

    std::vector<double> red_speed, oracle_speed, red_save;
    double walk = 0.0;
    for (std::size_t b = 0; b < opts.benches.size(); ++b) {
      const Comparison red = compare(results[b][0], results[b][1]);
      const Comparison oracle = compare(results[b][0], results[b][2]);
      red_speed.push_back(red.speedup);
      oracle_speed.push_back(oracle.speedup);
      red_save.push_back(1.0 - red.dyn_energy_ratio);
    }
    // The walk a bypass skips: every level below L1, at miss (tag) delay.
    const HierarchyConfig shape =
        HierarchyConfig::with_depth(depth, opts.scale, Scheme::kBase);
    for (std::size_t lvl = 1; lvl < shape.levels.size(); ++lvl) {
      const auto& e = shape.levels[lvl].energy;
      walk += static_cast<double>(e.tag_delay > 0 ? e.tag_delay
                                                  : e.data_delay);
    }
    t.add_row({std::to_string(depth), pct_delta(mean(oracle_speed)),
               pct_delta(mean(red_speed)), pct(mean(red_save)),
               fixed(walk, 0) + " cyc"});
  }
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: monotone growth — the deeper the hierarchy, the more a "
      "skipped walk is worth\n");
  if (!opts.cache_dir.empty()) {
    std::fprintf(stderr, "[sweep] cells=%zu cache_hits=%zu simulated=%zu\n",
                 total_stats.cells, total_stats.cache_hits,
                 total_stats.simulated);
  }
  return 0;
}
