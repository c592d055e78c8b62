// The sweep expansion, its content-addressed keys, and the aggregation
// layer.  The executor-vs-run_matrix equivalence matters most: sweep_matrix
// replaced run_matrix under the figure benches, so the two must produce
// bit-identical SimResults for the same options and columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sim/sampling.h"
#include "sweep/aggregate.h"
#include "sweep/axes.h"
#include "sweep/config_digest.h"
#include "sweep/sweep.h"

namespace redhip {
namespace {

RunSpec tiny_base() {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scale = 32;
  spec.refs_per_core = 2'000;
  return spec;
}

SweepSpec two_axis_spec() {
  SweepSpec spec;
  spec.base = tiny_base();
  SweepAxis scheme{"scheme",
                   {{"Base", [](RunSpec& s) { s.scheme = Scheme::kBase; }},
                    {"ReDHiP", [](RunSpec& s) { s.scheme = Scheme::kRedhip; }}}};
  SweepAxis size{"table-size", {}};
  for (int shift : {0, -1, -2}) {
    size.values.push_back({std::to_string(shift), [shift](RunSpec& s) {
                             chain_tweak(s, [shift](HierarchyConfig& c) {
                               c.redhip.table_bits >>= -shift;
                             });
                           }});
  }
  spec.axes.push_back(std::move(scheme));
  spec.axes.push_back(std::move(size));
  return spec;
}

TEST(SweepExpand, CrossProductRowMajorLastAxisFastest) {
  const SweepSpec spec = two_axis_spec();
  EXPECT_EQ(spec.cells(), 6u);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 6u);
  // (scheme, size) with size fastest: 00 01 02 10 11 12.
  const std::vector<std::vector<std::size_t>> want = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].coord, want[i]) << "cell " << i;
  }
  EXPECT_EQ(cells[4].labels, (std::vector<std::string>{"ReDHiP", "-1"}));
  EXPECT_EQ(cells[4].spec.scheme, Scheme::kRedhip);
}

TEST(SweepExpand, CellIndexMatchesExpansionOrder) {
  const SweepSpec spec = two_axis_spec();
  SweepOutcome out;
  for (const SweepAxis& axis : spec.axes) {
    out.axis_names.push_back(axis.name);
    std::vector<std::string> labels;
    for (const AxisValue& v : axis.values) labels.push_back(v.label);
    out.axis_labels.push_back(std::move(labels));
  }
  out.cells = expand(spec);
  for (std::size_t i = 0; i < out.cells.size(); ++i) {
    EXPECT_EQ(out.cell_index(out.cells[i].coord), i);
  }
}

TEST(SweepExpand, EmptyAxisIsAnError) {
  SweepSpec spec;
  spec.base = tiny_base();
  spec.axes.push_back({"empty", {}});
  EXPECT_THROW(expand(spec), std::logic_error);
}

TEST(SweepKey, DeterministicAndLabelIndependent) {
  const auto a = expand(two_axis_spec());
  const auto b = expand(two_axis_spec());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
  }
  // Same modifiers under different labels: the key hashes the resolved
  // config, not the display strings.
  SweepSpec renamed = two_axis_spec();
  for (auto& axis : renamed.axes) {
    for (auto& v : axis.values) v.label = "renamed-" + v.label;
  }
  const auto c = expand(renamed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, c[i].key);
  }
}

TEST(SweepKey, EveryAxisValueChangesTheKey) {
  const auto cells = expand(two_axis_spec());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      EXPECT_NE(cells[i].key, cells[j].key)
          << "cells " << i << " and " << j << " collide";
    }
  }
}

TEST(SweepKey, WorkloadScaleRefsSeedAndEngineAreAllKeyed) {
  const RunSpec base = tiny_base();
  const std::uint64_t k0 = sweep_cache_key(base);

  RunSpec s = base;
  s.bench = BenchmarkId::kAstar;
  EXPECT_NE(sweep_cache_key(s), k0);
  s = base;
  s.scale = 16;
  EXPECT_NE(sweep_cache_key(s), k0);
  s = base;
  s.refs_per_core += 1;
  EXPECT_NE(sweep_cache_key(s), k0);
  s = base;
  s.seed += 1;
  EXPECT_NE(sweep_cache_key(s), k0);
}

TEST(SweepKey, SamplingPlanDigestIsPinned) {
  // The plan digest is part of every sampled sweep-cache key and window
  // snapshot key, so existing cache cells and snapshots stay addressable
  // only while this value holds.
  SamplingPlan plan;
  plan.mode = SampleMode::kInterval;
  plan.period_refs = 1'000'000;
  plan.window_refs = 10'000;
  plan.warmup_refs = 100'000;
  EXPECT_EQ(sampling_digest(plan), 0xa2a62033951dd283ull);

  SamplingPlan off;
  EXPECT_EQ(sampling_digest(off), 0u);
}

TEST(SweepAxes, SampleAxisParsesPeriodWindowWarmup) {
  const SweepAxis axis =
      make_named_axis("sample=off,6M/10K/100K,2M/5K", ExperimentOptions{});
  ASSERT_EQ(axis.values.size(), 3u);
  RunSpec s;
  axis.values[0].apply(s);
  EXPECT_FALSE(s.sampling.enabled());
  axis.values[1].apply(s);
  EXPECT_EQ(s.sampling.mode, SampleMode::kInterval);
  EXPECT_EQ(s.sampling.period_refs, 6'000'000u);
  EXPECT_EQ(s.sampling.window_refs, 10'000u);
  EXPECT_EQ(s.sampling.warmup_refs, 100'000u);
  axis.values[2].apply(s);
  EXPECT_EQ(s.sampling.period_refs, 2'000'000u);
  EXPECT_EQ(s.sampling.window_refs, 5'000u);
  EXPECT_EQ(s.sampling.warmup_refs, 0u);
}

TEST(SweepAxes, SampleAxisRejectsMalformedValues) {
  // A fourth segment, a lone period and a non-count segment are all
  // rejected with the shape the axis expects.
  for (const char* spec : {"sample=6M/10K/100K/warm", "sample=6M/10K/100K/full",
                           "sample=6M", "sample=6M/ten"}) {
    try {
      make_named_axis(spec, ExperimentOptions{});
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "expected off or period/window[/warmup] counts"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(SweepAxes, NumericAxesRejectOverflowAndTruncation) {
  // 4294967304 = 2^32 + 8 would narrow to scale 8; 20000000000G overflows
  // the u64 multiply.  Both must be usage errors, never a different number.
  for (const char* spec :
       {"scale=4294967304", "refs=20000000000G", "seed=18446744073709551616",
        "table-size=17179869184G"}) {
    try {
      make_named_axis(spec, ExperimentOptions{});
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("INVALID_ARGUMENT: --axis ", 0),
                0u)
          << spec << ": " << e.what();
    }
  }
  // The largest representable values still parse.
  ExperimentOptions opts;
  RunSpec s;
  make_named_axis("scale=4294967295", opts).values[0].apply(s);
  EXPECT_EQ(s.scale, 4294967295u);
  make_named_axis("refs=18446744073709551615", opts).values[0].apply(s);
  EXPECT_EQ(s.refs_per_core, 18446744073709551615ull);
}

// The interval plan bench/sweep's --sample-* flags describe in the
// examples below: period 50000, window 5000, warmup 10000.
SamplingPlan interval_plan() {
  SamplingPlan plan;
  plan.mode = SampleMode::kInterval;
  plan.period_refs = 50'000;
  plan.window_refs = 5'000;
  plan.warmup_refs = 10'000;
  return plan;
}

TEST(SweepSpecFromCli, BaseMachineAndKeysArePinned) {
  // `sweep --scale 32 --refs 200000 --axis workload=mcf`: the base machine
  // is ReDHiP with the default inclusion and prefetch, and the key is the
  // one existing result caches are addressed by (cache schema v3).
  ExperimentOptions opts;
  opts.scale = 32;
  opts.refs_per_core = 200'000;
  const SweepSpec spec = make_sweep_spec(opts, {"workload=mcf"});
  const RunSpec defaults;
  EXPECT_EQ(spec.base.scheme, Scheme::kRedhip);
  EXPECT_EQ(spec.base.bench, defaults.bench);
  EXPECT_EQ(spec.base.inclusion, defaults.inclusion);
  EXPECT_EQ(spec.base.prefetch, defaults.prefetch);
  EXPECT_EQ(spec.base.seed, opts.seed);
  const std::vector<SweepCell> cells = expand(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key, 0xf904a474b9710bdaull);

  // The same cell under the sample=50000/5000/10000 axis value.
  const std::vector<SweepCell> sampled =
      expand(make_sweep_spec(opts, {"workload=mcf", "sample=50000/5000/10000"}));
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(sampled[0].key, 0x6a8e29f5d524e204ull);
}

TEST(SweepSpecFromCli, SamplingPlanReachesEveryCell) {
  ExperimentOptions exact;
  exact.scale = 32;
  exact.refs_per_core = 200'000;
  ExperimentOptions sampled = exact;
  sampled.sampling = interval_plan();
  const std::vector<std::string> axes = {"workload=mcf,astar",
                                         "scheme=Base,ReDHiP"};

  const std::vector<SweepCell> exact_cells =
      expand(make_sweep_spec(exact, axes));
  const std::vector<SweepCell> sampled_cells =
      expand(make_sweep_spec(sampled, axes));
  ASSERT_EQ(sampled_cells.size(), 4u);
  ASSERT_EQ(exact_cells.size(), sampled_cells.size());
  for (std::size_t i = 0; i < sampled_cells.size(); ++i) {
    const SamplingPlan& plan = sampled_cells[i].spec.sampling;
    EXPECT_EQ(plan.mode, SampleMode::kInterval) << "cell " << i;
    EXPECT_EQ(plan.period_refs, 50'000u);
    EXPECT_EQ(plan.window_refs, 5'000u);
    EXPECT_EQ(plan.warmup_refs, 10'000u);
    EXPECT_NE(sampled_cells[i].key, exact_cells[i].key) << "cell " << i;
  }

  // A sample=off axis value overrides the plan per cell, back to the exact
  // cell and its key; the interval value keeps the command-line plan's key.
  std::vector<std::string> with_off = axes;
  with_off.push_back("sample=off,50000/5000/10000");
  const std::vector<SweepCell> overridden =
      expand(make_sweep_spec(sampled, with_off));
  ASSERT_EQ(overridden.size(), 8u);
  for (std::size_t i = 0; i < exact_cells.size(); ++i) {
    EXPECT_FALSE(overridden[2 * i].spec.sampling.enabled());
    EXPECT_EQ(overridden[2 * i].key, exact_cells[i].key) << "cell " << i;
    EXPECT_EQ(overridden[2 * i + 1].key, sampled_cells[i].key) << "cell " << i;
  }
}

TEST(SweepKey, TracePathDoesNotChangeTheKey) {
  // The event-trace destination is a host-side side channel, not part of
  // the simulated machine; two runs that differ only in where they write
  // their trace are the same run.
  RunSpec a = tiny_base();
  RunSpec b = tiny_base();
  chain_tweak(b, [](HierarchyConfig& c) { c.obs.trace_path = "/tmp/x.jsonl"; });
  EXPECT_EQ(sweep_cache_key(a), sweep_cache_key(b));
  // ...but turning the epoch sampler on is simulated state (epochs land in
  // SimResult), so it must re-key.
  RunSpec c = tiny_base();
  chain_tweak(c, [](HierarchyConfig& hc) { hc.obs.enabled = true; });
  EXPECT_NE(sweep_cache_key(a), sweep_cache_key(c));
}

TEST(SweepExecutor, MatchesRunMatrixBitForBit) {
  std::vector<SchemeColumn> columns = {{"Base", Scheme::kBase}};
  SchemeColumn red;
  red.label = "ReDHiP/4";
  red.scheme = Scheme::kRedhip;
  red.tweak = [](HierarchyConfig& c) { c.redhip.table_bits >>= 2; };
  columns.push_back(std::move(red));

  // Exact, and under the --sample-* plan both executors apply to every
  // cell.
  SamplingPlan sampled;
  sampled.mode = SampleMode::kInterval;
  sampled.period_refs = 1'000;
  sampled.window_refs = 100;
  sampled.warmup_refs = 200;
  for (const SamplingPlan& plan : {SamplingPlan{}, sampled}) {
    ExperimentOptions opts;
    opts.scale = 32;
    opts.refs_per_core = 2'000;
    opts.benches = {BenchmarkId::kMcf, BenchmarkId::kAstar};
    opts.sampling = plan;

    const auto via_matrix = run_matrix(opts, columns);
    SweepStats stats;
    const auto via_sweep = sweep_matrix(opts, columns, &stats);
    EXPECT_EQ(stats.cells, 4u);
    EXPECT_EQ(stats.simulated, 4u);  // no cache configured
    EXPECT_EQ(stats.cache_hits, 0u);
    ASSERT_EQ(via_sweep.size(), via_matrix.size());
    for (std::size_t b = 0; b < via_matrix.size(); ++b) {
      ASSERT_EQ(via_sweep[b].size(), via_matrix[b].size());
      for (std::size_t c = 0; c < via_matrix[b].size(); ++c) {
        EXPECT_EQ(via_sweep[b][c].sampling.enabled, plan.enabled());
        EXPECT_TRUE(stats_identical(via_matrix[b][c], via_sweep[b][c]))
            << "bench " << b << " column " << c;
      }
    }
  }
}

TEST(SweepAggregate, SensitivityTableAveragesOverOtherAxes) {
  // Hand-built 2x2 outcome; metric = exec_cycles.
  SweepOutcome out;
  out.axis_names = {"a", "b"};
  out.axis_labels = {{"a0", "a1"}, {"b0", "b1"}};
  out.cells.resize(4);
  const std::vector<double> cycles = {10, 20, 30, 40};  // a0b0 a0b1 a1b0 a1b1
  for (std::size_t i = 0; i < 4; ++i) {
    out.cells[i].coord = {i / 2, i % 2};
    out.cells[i].result.exec_cycles = static_cast<Cycles>(cycles[i]);
  }
  const SensitivityTable ta = sensitivity_table(out, 0, metric_exec_cycles);
  ASSERT_EQ(ta.rows.size(), 2u);
  EXPECT_EQ(ta.rows[0].label, "a0");
  EXPECT_DOUBLE_EQ(ta.rows[0].mean, 15.0);
  EXPECT_DOUBLE_EQ(ta.rows[1].mean, 35.0);
  EXPECT_EQ(ta.rows[0].cells, 2u);
  const SensitivityTable tb = sensitivity_table(out, 1, metric_exec_cycles);
  EXPECT_DOUBLE_EQ(tb.rows[0].mean, 20.0);
  EXPECT_DOUBLE_EQ(tb.rows[1].mean, 30.0);
}

TEST(SweepAggregate, ParetoFrontDominance) {
  // (speedup, energy): higher speedup and lower energy dominate.
  std::vector<ParetoPoint> pts(4);
  pts[0].speedup = 1.10; pts[0].total_energy_ratio = 0.80;  // front
  pts[1].speedup = 1.05; pts[1].total_energy_ratio = 0.70;  // front
  pts[2].speedup = 1.05; pts[2].total_energy_ratio = 0.90;  // dominated by 0
  pts[3].speedup = 1.10; pts[3].total_energy_ratio = 0.80;  // ties 0: front
  mark_pareto_front(pts);
  EXPECT_TRUE(pts[0].on_front);
  EXPECT_TRUE(pts[1].on_front);
  EXPECT_FALSE(pts[2].on_front);
  EXPECT_TRUE(pts[3].on_front);
}

TEST(SweepAggregate, ReportsContainEveryCell) {
  SweepSpec spec = two_axis_spec();
  spec.base.refs_per_core = 500;
  const SweepOutcome out = run_sweep(spec);
  const std::string json = sweep_report_json(out);
  const std::string csv = sweep_report_csv(out);
  for (const SweepCell& cell : out.cells) {
    for (const std::string& label : cell.labels) {
      EXPECT_NE(json.find(label), std::string::npos);
      EXPECT_NE(csv.find(label), std::string::npos);
    }
  }
  // One header plus one row per cell.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            out.cells.size() + 1);
}

}  // namespace
}  // namespace redhip
