// Figure 12 — ReDHiP dynamic energy vs recalibration interval (number of L1
// misses between recalibrations), normalized to Base.  Sweeps from
// recalibrating at every L1 miss ("1", perfect recalibration) through 10K /
// 100K / 1M / 10M / 100M to never ("inf").
//
// Paper result: a precipitous accuracy cliff between 1M and 100M; intervals
// at or below 1M are all roughly equivalent — 1M is the clear choice.
// As in Fig. 11, only the accuracy effect is reported (overhead excluded),
// which is why "1" is not penalized by its absurd recalibration cost.
#include <cstdio>

#include "common/cli.h"
#include "harness/report.h"
#include "sweep/sweep.h"

using namespace redhip;

namespace {

double accuracy_energy(const SimResult& r) {
  double sum = 0.0;
  for (double v : r.energy.level_dynamic_j) sum += v;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const ExperimentOptions opts = ExperimentOptions::parse(cli);

  // Paper-scale intervals, divided by `scale` like the rest of the machine
  // (an interval of 1M at scale 8 becomes 125K — the same fraction of the
  // scaled LLC's fill rate).
  struct Point {
    const char* label;
    std::uint64_t interval;  // at paper scale; 0 = never, 1 = every miss
  };
  const std::vector<Point> points = {
      {"1", 1},           {"10K", 10'000},      {"100K", 100'000},
      {"1M", 1'000'000},  {"10M", 10'000'000},  {"100M", 100'000'000},
      {"inf", 0}};

  std::vector<SchemeColumn> columns = {{"Base", Scheme::kBase}};
  for (const Point& p : points) {
    SchemeColumn col;
    col.label = p.label;
    col.scheme = Scheme::kRedhip;
    const std::uint64_t interval = p.interval;
    const std::uint32_t scale = opts.scale;
    col.tweak = [interval, scale](HierarchyConfig& c) {
      c.redhip.recal_interval_l1_misses =
          interval == 0 ? 0 : std::max<std::uint64_t>(1, interval / scale);
    };
    columns.push_back(std::move(col));
  }
  SweepStats sweep_stats;
  const auto results = run_matrix(opts, columns, &sweep_stats);

  std::printf(
      "Figure 12 — ReDHiP dynamic energy vs recalibration interval, "
      "normalized to Base (accuracy effect only)\n");
  std::vector<std::string> headers{"benchmark"};
  for (const Point& p : points) headers.push_back(p.label);
  TablePrinter t(headers);
  std::vector<std::vector<double>> ratios(points.size());
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
      "\npaper shape: <=1M all similar; cliff from 1M to 100M; inf worst\n");
  if (!opts.cache_dir.empty()) {
    std::fprintf(stderr, "[sweep] cells=%zu cache_hits=%zu simulated=%zu\n",
                 sweep_stats.cells, sweep_stats.cache_hits,
                 sweep_stats.simulated);
  }
  return 0;
}
