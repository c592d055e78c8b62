// Figure 11 — ReDHiP dynamic energy vs prediction-table size (2MB down to
// 64KB at the paper's scale), normalized to Base.  Recalibration interval is
// held constant.
//
// Paper result: gains become marginal above 512KB and the table is almost
// useless at 64KB; 256KB and 512KB are the sensible design points.
//
// Note the paper's "we next focus on dynamic energy and, for these results
// only, ignore the prediction overhead" — mirrored here by reporting the
// hierarchy-only dynamic energy (predictor and recalibration terms
// excluded).
#include <cstdio>

#include "common/cli.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

namespace {

// Hierarchy dynamic energy without the prediction/recalibration overhead.
double accuracy_energy(const SimResult& r) {
  double sum = 0.0;
  for (double v : r.energy.level_dynamic_j) sum += v;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  // Paper sweep: 2M, 512K, 256K, 128K, 64K (per Fig. 11's legend), i.e.
  // table_bits x4 down to /8 around the 512K default; scaled alongside the
  // hierarchy.
  struct Point {
    const char* label;
    int shift;  // table_bits <<= shift relative to the default
  };
  const std::vector<Point> sizes = {
      {"2M", 2}, {"512K", 0}, {"256K", -1}, {"128K", -2}, {"64K", -3}};

  std::vector<SchemeColumn> columns = {{"Base", Scheme::kBase}};
  for (const Point& p : sizes) {
    SchemeColumn col;
    col.label = p.label;
    col.scheme = Scheme::kRedhip;
    const int shift = p.shift;
    col.tweak = [shift](HierarchyConfig& c) {
      c.redhip.table_bits = shift >= 0 ? c.redhip.table_bits << shift
                                       : c.redhip.table_bits >> -shift;
    };
    columns.push_back(std::move(col));
  }
  SweepStats sweep_stats;
  const auto results = run_matrix(opts, columns, &sweep_stats);

  std::printf(
      "Figure 11 — ReDHiP dynamic energy vs PT size, normalized to Base\n"
      "(accuracy effect only: prediction/recalibration overhead excluded; "
      "labels are paper-scale sizes)\n");
  std::vector<std::string> headers{"benchmark"};
  for (const Point& p : sizes) headers.push_back(p.label);
  TablePrinter t(headers);
  std::vector<std::vector<double>> ratios(sizes.size());
  for (std::size_t b = 0; b < opts.benches.size(); ++b) {
    std::vector<std::string> row{to_string(opts.benches[b])};
    const double base = accuracy_energy(results[b][0]);
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const double ratio = accuracy_energy(results[b][c]) / base;
      ratios[c - 1].push_back(ratio);
      row.push_back(pct(ratio));
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> avg{"average"};
  for (auto& r : ratios) avg.push_back(pct(mean(r)));
  t.add_row(std::move(avg));
  if (opts.csv) {
    t.print_csv();
  } else {
    t.print();
  }
  std::printf(
      "\npaper shape: marginal gains beyond 512K; 64K nearly useless\n");
  if (!opts.cache_dir.empty()) {
    std::fprintf(stderr, "[sweep] cells=%zu cache_hits=%zu simulated=%zu\n",
                 sweep_stats.cells, sweep_stats.cache_hits,
                 sweep_stats.simulated);
  }
  return 0;
}
