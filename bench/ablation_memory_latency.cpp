// Ablation (beyond the paper) — sensitivity to the memory model.
//
// The paper deliberately models memory as a zero-delay, zero-energy store
// ("we focus on the cache behavior").  This bench re-runs Base vs ReDHiP
// with a realistic off-chip latency/energy (200 cycles, 20 nJ) to show which
// conclusions survive: the dynamic *cache* energy savings are unchanged (the
// bypassed lookups are the same), while the relative speedup shrinks because
// the memory latency dominates the walk latency ReDHiP removes.
#include <cstdio>

#include "common/cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);
  const Cycles mem_lat =
      static_cast<Cycles>(cli.get_int("mem-latency", 200));
  const double mem_nj = cli.get_double("mem-energy", 20.0);

  auto with_memory = [mem_lat, mem_nj](HierarchyConfig& c) {
    c.memory_latency = mem_lat;
    c.memory_energy_nj = mem_nj;
  };
  const std::vector<SchemeColumn> columns = {
      {"Base/paper-mem", Scheme::kBase},
      {"ReDHiP/paper-mem", Scheme::kRedhip},
      {"Base/real-mem", Scheme::kBase, InclusionPolicy::kInclusive, false,
       with_memory},
      {"ReDHiP/real-mem", Scheme::kRedhip, InclusionPolicy::kInclusive, false,
       with_memory},
  };
  const auto results = run_matrix(opts, columns);

  std::printf(
      "Ablation — ReDHiP under the paper's zero-cost memory vs a realistic "
      "memory (%llu cycles, %.0f nJ per access)\n",
      static_cast<unsigned long long>(mem_lat), mem_nj);
  TablePrinter t({"benchmark", "speedup (paper mem)", "speedup (real mem)",
                  "cache-dyn saving (paper)", "cache-dyn saving (real)"});
  std::vector<double> s0, s1, e0, e1;
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    const Comparison paper = compare(results[b][0], results[b][1]);
    const Comparison real = compare(results[b][2], results[b][3]);
    // Cache-only dynamic saving: exclude the memory term so both memory
    // models are compared on the same quantity.
    auto cache_dyn = [](const SimResult& r) {
      return r.energy.dynamic_total_j() - r.energy.memory_j;
    };
    const double sv0 = 1.0 - cache_dyn(results[b][1]) / cache_dyn(results[b][0]);
    const double sv1 = 1.0 - cache_dyn(results[b][3]) / cache_dyn(results[b][2]);
    s0.push_back(paper.speedup);
    s1.push_back(real.speedup);
    e0.push_back(sv0);
    e1.push_back(sv1);
    t.add_row({to_string(opts.benches[b]), pct_delta(paper.speedup),
               pct_delta(real.speedup), pct(sv0), pct(sv1)});
  }
  t.add_row({"average", pct_delta(mean(s0)), pct_delta(mean(s1)),
             pct(mean(e0)), pct(mean(e1))});
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\nexpected: cache-energy savings robust to the memory model; speedup "
      "diluted once misses cost %llu cycles\n",
      static_cast<unsigned long long>(mem_lat));
  return 0;
}
