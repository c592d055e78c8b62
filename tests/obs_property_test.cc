// Property tests for the observability layer: over randomly drawn
// workloads, epoch sizes and feature combinations, the per-epoch confusion
// counts and the recalibration events must satisfy the paper's structural
// invariants —
//   * the false-negative count of every epoch is zero (the PT never clears
//     a bit outside recalibration, so a bypass is always safe),
//   * recalibration only wipes stale bits: occupancy_after <= before at
//     every recal_start/recal_end bracket (the FP mass is non-increasing
//     across each recalibration boundary),
//   * epochs tile the run exactly (refs sum to total_refs, boundaries are
//     cumulative).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "harness/run.h"
#include "obs/jsonl_reader.h"
#include "sim/stats.h"

namespace redhip {
namespace {

struct DrawnCase {
  BenchmarkId bench;
  std::uint64_t refs_per_core;
  std::uint64_t epoch_refs;
  std::uint64_t seed;
  bool prefetch;
  bool auto_disable;
};

DrawnCase draw_case(std::mt19937_64& rng) {
  static const std::vector<BenchmarkId> kBenches = {
      BenchmarkId::kMcf,   BenchmarkId::kMilc, BenchmarkId::kAstar,
      BenchmarkId::kLbm,   BenchmarkId::kMix,  BenchmarkId::kPmf,
  };
  DrawnCase c;
  c.bench = kBenches[rng() % kBenches.size()];
  c.refs_per_core = 4'000 + rng() % 16'000;
  c.epoch_refs = 500 + rng() % 20'000;
  c.seed = rng();
  c.prefetch = (rng() & 1) != 0;
  c.auto_disable = (rng() & 1) != 0;
  return c;
}

RunSpec spec_for(const DrawnCase& c, const std::string& trace_path) {
  RunSpec spec;
  spec.bench = c.bench;
  spec.scheme = Scheme::kRedhip;
  spec.scale = 8;
  spec.refs_per_core = c.refs_per_core;
  spec.seed = c.seed;
  spec.prefetch = c.prefetch;
  spec.tweak = [c, trace_path](HierarchyConfig& hc) {
    if (c.auto_disable) {
      hc.auto_disable.enabled = true;
      hc.auto_disable.epoch_refs = 5'000;
    }
    hc.obs.enabled = true;
    hc.obs.epoch_refs = c.epoch_refs;
    hc.obs.trace_path = trace_path;
  };
  return spec;
}

// `strict_partition` asserts tp + fp == predicted_present per epoch.  That
// partition only holds while the predictor is active for the whole window:
// during an auto-disabled stretch, lookups are skipped (predicted_present
// stays flat) but the hierarchy walk still classifies would-have-been
// predictions as TP/FP, so windows straddling a disable flip legitimately
// break it.
void check_trace_invariants(const std::vector<ObsEvent>& events,
                            const SimResult& r, bool strict_partition,
                            const std::string& what) {
  ASSERT_GE(events.size(), 3u) << what;
  EXPECT_EQ(events.front().type, "run_begin") << what;
  EXPECT_EQ(events.back().type, "run_end") << what;

  std::uint64_t epoch_ref_sum = 0;
  std::uint64_t prev_end_ref = 0;
  std::size_t epoch_index = 0;
  std::uint64_t occupancy_before = 0;
  bool in_recal = false;
  for (const ObsEvent& e : events) {
    if (e.type == "epoch") {
      // The paper's invariant, per observation window: a bypass is never
      // wrong, so every epoch's false-negative count is exactly zero.
      EXPECT_EQ(e.num_at("fn"), 0u) << what << " epoch " << epoch_index;
      EXPECT_EQ(e.num_at("index"), epoch_index) << what;
      epoch_ref_sum += e.num_at("refs");
      EXPECT_EQ(e.num_at("end_ref"), prev_end_ref + e.num_at("refs")) << what;
      prev_end_ref = e.num_at("end_ref");
      // Confusion counts partition the lookups they came from.
      EXPECT_EQ(e.num_at("tn") + e.num_at("fn"), e.num_at("predicted_absent"))
          << what;
      if (strict_partition) {
        EXPECT_EQ(e.num_at("tp") + e.num_at("fp"),
                  e.num_at("predicted_present"))
            << what;
      }
      ++epoch_index;
    } else if (e.type == "recal_start") {
      EXPECT_FALSE(in_recal) << what << ": nested recal_start";
      in_recal = true;
      occupancy_before = e.num_at("occupancy_before");
    } else if (e.type == "recal_end") {
      EXPECT_TRUE(in_recal) << what << ": recal_end without start";
      in_recal = false;
      // Recalibration rebuilds the PT from the tag array: it can only
      // clear bits that went stale, never invent presence.  The false
      // positives accumulated since the last rebuild are wiped, so the
      // occupancy never grows across the boundary.
      EXPECT_LE(e.num_at("occupancy_after"), occupancy_before)
          << what << " at ref " << e.num_at("ref");
    }
  }
  EXPECT_FALSE(in_recal) << what << ": unterminated recal bracket";
  EXPECT_EQ(epoch_index, r.epochs.size()) << what;
  EXPECT_EQ(epoch_ref_sum, r.total_refs) << what;
  EXPECT_EQ(events.back().num_at("ref"), r.total_refs) << what;
  EXPECT_EQ(events.back().num_at("epochs"), r.epochs.size()) << what;

  // The in-memory epoch series and the trace tell the same story.
  for (const EpochSample& s : r.epochs) {
    EXPECT_EQ(s.fn, 0u) << what;
    EXPECT_EQ(s.tn + s.fn, s.predicted_absent) << what;
  }
}

TEST(ObsProperty, RandomConfigsKeepTheConfusionAndRecalInvariants) {
  std::mt19937_64 rng(20260807);
  const std::string dir = ::testing::TempDir();
  for (int iter = 0; iter < 10; ++iter) {
    const DrawnCase c = draw_case(rng);
    const std::string what =
        "iter " + std::to_string(iter) + " bench " + to_string(c.bench) +
        " refs " + std::to_string(c.refs_per_core) + " epoch " +
        std::to_string(c.epoch_refs) + " seed " + std::to_string(c.seed);
    const std::string path =
        dir + "/obs-prop-" + std::to_string(iter) + ".jsonl";
    const SimResult r = run_spec(spec_for(c, path));
    check_trace_invariants(load_jsonl_file(path), r,
                           /*strict_partition=*/!c.auto_disable, what);
  }
}

}  // namespace
}  // namespace redhip
