// Tests for HierarchyConfig::with_depth — the 2..5-level machines behind
// the hierarchy-depth extension bench.
#include <gtest/gtest.h>

#include "energy/cacti_lite.h"
#include "harness/run.h"
#include "sim/config_digest.h"
#include "sim/simulator.h"
#include "trace/workloads.h"

namespace redhip {
namespace {

TEST(Depth, ShapesAreAsSpecified) {
  for (std::uint32_t d = 2; d <= 5; ++d) {
    const HierarchyConfig c =
        HierarchyConfig::with_depth(d, 8, Scheme::kRedhip);
    EXPECT_EQ(c.num_levels(), d);
    EXPECT_EQ(c.levels[0].geom.size_bytes, 32_KiB / 8) << "L1 fixed";
    // PT keeps the paper's area ratio against the actual LLC.
    EXPECT_NEAR(static_cast<double>(c.redhip.table_bits / 8) /
                    static_cast<double>(c.llc().geom.size_bytes),
                0.0078, 0.0001);
    EXPECT_GT(c.redhip.index_bits(), c.llc().geom.set_bits());
  }
}

// Depth 4 is Table I: the machine scaled() builds, for every scheme.
TEST(Depth, DepthFourIsTheScaledMachine) {
  for (const Scheme s : {Scheme::kBase, Scheme::kPhased, Scheme::kCbf,
                         Scheme::kRedhip, Scheme::kOracle,
                         Scheme::kPartialTag}) {
    for (const std::uint32_t scale : {1u, 8u, 32u}) {
      EXPECT_EQ(config_digest(HierarchyConfig::with_depth(4, scale, s)),
                config_digest(HierarchyConfig::scaled(scale, s)))
          << to_string(s) << " at scale " << scale;
    }
  }
}

// Every LLC predictor is priced from the machine's own LLC, the
// partial-tag mirror included: one partial tag and a valid bit per line,
// beside the LLC.
TEST(Depth, PartialTagMirrorIsPricedFromItsOwnLlc) {
  for (std::uint32_t d = 2; d <= 5; ++d) {
    const HierarchyConfig c =
        HierarchyConfig::with_depth(d, 8, Scheme::kPartialTag);
    const PredictorEnergyParams want = CactiLite::pt_params(
        c.llc().geom.lines() * (c.partial_tag.partial_bits + 1) / 8);
    const PredictorEnergyParams& got = c.partial_tag.energy;
    EXPECT_EQ(got.access_delay, want.access_delay) << "depth " << d;
    EXPECT_EQ(got.access_energy_nj, want.access_energy_nj) << "depth " << d;
    EXPECT_EQ(got.leakage_w, want.leakage_w) << "depth " << d;
    EXPECT_EQ(got.wire_delay, c.redhip.energy.wire_delay) << "depth " << d;
  }
}

TEST(Depth, RejectsUnsupportedDepths) {
  EXPECT_THROW(HierarchyConfig::with_depth(1, 8, Scheme::kBase),
               std::logic_error);
  EXPECT_THROW(HierarchyConfig::with_depth(6, 8, Scheme::kBase),
               std::logic_error);
}

TEST(Depth, FiveLevelLlcIsLargerAndSlower) {
  const HierarchyConfig four = HierarchyConfig::with_depth(4, 8, Scheme::kBase);
  const HierarchyConfig five = HierarchyConfig::with_depth(5, 8, Scheme::kBase);
  EXPECT_GT(five.llc().geom.size_bytes, four.llc().geom.size_bytes);
  EXPECT_GT(five.llc().energy.data_delay, four.llc().energy.data_delay);
  EXPECT_GT(five.llc().energy.data_energy_nj,
            four.llc().energy.data_energy_nj);
}

SimResult run_depth(std::uint32_t depth, Scheme scheme) {
  RunSpec spec;
  spec.bench = BenchmarkId::kMcf;
  spec.scheme = scheme;
  spec.scale = 32;
  spec.refs_per_core = 25'000;
  spec.tweak = [depth](HierarchyConfig& c) {
    c = HierarchyConfig::with_depth(depth, 32, c.scheme);
  };
  return spec.tweak ? run_spec(spec) : SimResult{};
}

TEST(Depth, SimulatorRunsAtEveryDepth) {
  for (std::uint32_t d = 2; d <= 5; ++d) {
    const SimResult r = run_depth(d, Scheme::kRedhip);
    EXPECT_EQ(r.levels.size(), d) << "depth " << d;
    EXPECT_EQ(r.total_refs, 8u * 25'000u);
    EXPECT_GT(r.predictor.predicted_absent, 0u);
    // Universal identity holds at every depth.
    std::uint64_t lower_hits = 0;
    for (std::size_t lvl = 1; lvl < r.levels.size(); ++lvl) {
      lower_hits += r.levels[lvl].hits;
    }
    EXPECT_EQ(r.demand_memory_accesses, r.levels[0].misses - lower_hits);
  }
}

TEST(Depth, DeeperHierarchiesMakeBypassesWorthMore) {
  // The paper's motivating trend, measured end-to-end: ReDHiP's energy
  // saving on a miss-heavy workload grows with hierarchy depth.
  double prev_saving = -1.0;
  for (std::uint32_t d : {2u, 4u}) {
    const SimResult base = run_depth(d, Scheme::kBase);
    const SimResult red = run_depth(d, Scheme::kRedhip);
    const double saving = 1.0 - compare(base, red).dyn_energy_ratio;
    EXPECT_GT(saving, prev_saving) << "depth " << d;
    prev_saving = saving;
  }
}

}  // namespace
}  // namespace redhip
