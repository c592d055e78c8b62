// The fast engine (run(): batched trace refill, tree scheduler, run loops
// specialized on the feature mask) must be a pure reimplementation of the
// reference engine (run_reference(): the original scalar loop): same
// interleave, same RNG consumption, bit-identical statistics.  These tests
// pin that contract across schemes, inclusion policies, and every
// specialized-loop instantiation.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/json_report.h"
#include "harness/run.h"
#include "sim/stats.h"

namespace redhip {
namespace {

RunSpec small_spec(BenchmarkId bench, Scheme scheme,
                   InclusionPolicy inclusion) {
  RunSpec spec;
  spec.bench = bench;
  spec.scheme = scheme;
  spec.inclusion = inclusion;
  spec.scale = 8;
  spec.refs_per_core = 20'000;
  spec.seed = 1234;
  return spec;
}

// Run the same spec through both engines and require bit-identical stats.
void expect_engines_agree(RunSpec spec, const std::string& what) {
  spec.engine = SimEngine::kFast;
  const SimResult fast = run_spec(spec);
  spec.engine = SimEngine::kReference;
  const SimResult ref = run_spec(spec);
  EXPECT_TRUE(stats_identical(fast, ref)) << what;
  // Spot-check a few load-bearing counters so a stats_identical bug can't
  // silently vacuously pass.
  EXPECT_EQ(fast.total_refs, ref.total_refs) << what;
  EXPECT_EQ(fast.exec_cycles, ref.exec_cycles) << what;
  EXPECT_GT(fast.total_refs, 0u) << what;
}

TEST(EngineEquivalence, EverySchemeInclusive) {
  for (Scheme s : {Scheme::kBase, Scheme::kPhased, Scheme::kCbf,
                   Scheme::kRedhip, Scheme::kOracle, Scheme::kPartialTag}) {
    expect_engines_agree(
        small_spec(BenchmarkId::kMcf, s, InclusionPolicy::kInclusive),
        "inclusive " + to_string(s));
  }
}

TEST(EngineEquivalence, ExclusiveAndHybrid) {
  for (InclusionPolicy p :
       {InclusionPolicy::kExclusive, InclusionPolicy::kHybrid}) {
    for (Scheme s : {Scheme::kBase, Scheme::kRedhip}) {
      expect_engines_agree(small_spec(BenchmarkId::kBlas, s, p),
                           to_string(p) + " " + to_string(s));
    }
  }
}

TEST(EngineEquivalence, SeveralWorkloads) {
  for (BenchmarkId b : {BenchmarkId::kBwaves, BenchmarkId::kAstar,
                        BenchmarkId::kMix, BenchmarkId::kPmf}) {
    expect_engines_agree(
        small_spec(b, Scheme::kRedhip, InclusionPolicy::kInclusive),
        "workload " + to_string(b));
  }
}

// Every run_loop<kFault, kPrefetch, kAutoDisable> instantiation: the fast
// engine dispatches on the feature mask, so each of the 8 combinations is a
// distinct compiled loop that must match the (always-generic) reference.
TEST(EngineEquivalence, AllSpecializedLoopInstantiations) {
  for (int mask = 0; mask < 8; ++mask) {
    const bool fault = mask & 1;
    const bool prefetch = mask & 2;
    const bool auto_disable = mask & 4;
    RunSpec spec =
        small_spec(BenchmarkId::kMcf, Scheme::kRedhip,
                   InclusionPolicy::kInclusive);
    spec.prefetch = prefetch;
    spec.tweak = [fault, auto_disable](HierarchyConfig& config) {
      if (fault) {
        config.fault.enabled = true;
        config.fault.rate_per_mref = 2'000;  // dense enough to fire at 160k
        config.audit.enabled = true;
      }
      if (auto_disable) {
        config.auto_disable.enabled = true;
        config.auto_disable.epoch_refs = 5'000;  // several epochs per run
      }
    };
    expect_engines_agree(spec, "feature mask " + std::to_string(mask));
  }
}

// Core counts off the figure matrix's 8: padded scheduler leaves (1, 3, 5,
// 12) and both sides of the LLC directory's <= 8-core gate (12, 16 run
// without it).  json_report covers every priced figure, not just counters.
TEST(EngineEquivalence, CoreCountsAroundSchedulerAndDirectoryGates) {
  for (std::uint32_t cores : {1u, 3u, 5u, 12u, 16u}) {
    RunSpec spec = small_spec(BenchmarkId::kMix, Scheme::kRedhip,
                              InclusionPolicy::kInclusive);
    spec.refs_per_core = 10'000;
    spec.tweak = [cores](HierarchyConfig& config) { config.cores = cores; };
    const std::string what = std::to_string(cores) + " cores";
    spec.engine = SimEngine::kFast;
    const SimResult fast = run_spec(spec);
    spec.engine = SimEngine::kReference;
    const SimResult ref = run_spec(spec);
    EXPECT_TRUE(stats_identical(fast, ref)) << what;
    EXPECT_EQ(fast.total_refs, std::uint64_t{cores} * spec.refs_per_core)
        << what;
    EXPECT_EQ(to_json(fast), to_json(ref)) << what;
  }
}

// --- Statistical sampling ----------------------------------------------------
// Sampled runs keep the full bit-identity contract: the three engines must
// agree on every counter, on the sampling report (windows, estimates, CIs),
// on the json_report document, and on the JSONL event trace.

RunSpec sampled_spec(BenchmarkId bench, Scheme scheme,
                     InclusionPolicy inclusion) {
  RunSpec spec = small_spec(bench, scheme, inclusion);
  spec.refs_per_core = 60'000;
  spec.sampling.mode = SampleMode::kInterval;
  spec.sampling.period_refs = 10'000;
  spec.sampling.window_refs = 1'000;
  spec.sampling.warmup_refs = 2'000;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_sampled_engines_agree(RunSpec spec, const std::string& what) {
  spec.engine = SimEngine::kFast;
  const SimResult fast = run_spec(spec);
  spec.engine = SimEngine::kReference;
  const SimResult ref = run_spec(spec);

  EXPECT_TRUE(stats_identical(fast, ref)) << what;
  EXPECT_EQ(to_json(fast), to_json(ref)) << what;

  // The report is structurally sound, not just identical.
  ASSERT_TRUE(fast.sampling.enabled) << what;
  EXPECT_EQ(fast.sampling.windows, 6u) << what;
  EXPECT_EQ(fast.sampling.window_samples.size(), 6u) << what;
  EXPECT_GT(fast.sampling.measured_refs, 0u) << what;
  EXPECT_GT(fast.sampling.skipped_refs, 0u) << what;
  EXPECT_GT(fast.sampling.ipc.mean, 0.0) << what;
  EXPECT_GT(fast.sampling.l1_hit_rate.mean, 0.0) << what;
  EXPECT_GT(fast.sampling.total_energy_j.mean, 0.0) << what;
  // Sampled refs_done still reaches the exact run's total: skip covers
  // every reference outside windows and warmup.
  EXPECT_EQ(fast.total_refs, 60'000u * 8u) << what;
}

TEST(EngineEquivalence, SampledSchemesAgreeAcrossAllEngines) {
  for (Scheme s : {Scheme::kBase, Scheme::kRedhip, Scheme::kCbf}) {
    expect_sampled_engines_agree(
        sampled_spec(BenchmarkId::kMcf, s, InclusionPolicy::kInclusive),
        "sampled " + to_string(s));
  }
}

TEST(EngineEquivalence, SampledWorkloadsAndInclusions) {
  expect_sampled_engines_agree(
      sampled_spec(BenchmarkId::kBlas, Scheme::kRedhip,
                   InclusionPolicy::kExclusive),
      "sampled exclusive blas");
  expect_sampled_engines_agree(
      sampled_spec(BenchmarkId::kMix, Scheme::kRedhip,
                   InclusionPolicy::kHybrid),
      "sampled hybrid mix");
}

TEST(EngineEquivalence, SampledWithPrefetchAndAutoDisable) {
  RunSpec spec = sampled_spec(BenchmarkId::kAstar, Scheme::kRedhip,
                              InclusionPolicy::kInclusive);
  spec.prefetch = true;
  spec.tweak = [](HierarchyConfig& config) {
    config.auto_disable.enabled = true;
    config.auto_disable.epoch_refs = 5'000;
  };
  expect_sampled_engines_agree(spec, "sampled prefetch+auto-disable");
}

// The JSONL event trace of a sampled run — run_begin, sample_window and
// epoch events, run_end — is byte-identical across engines.
TEST(EngineEquivalence, SampledEventTracesAreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  auto traced = [&](SimEngine engine, const std::string& path) {
    RunSpec spec = sampled_spec(BenchmarkId::kMcf, Scheme::kRedhip,
                                InclusionPolicy::kInclusive);
    spec.engine = engine;
    spec.tweak = [path](HierarchyConfig& hc) {
      hc.obs.enabled = true;
      hc.obs.epoch_refs = 50'000;
      hc.obs.trace_path = path;
    };
    return run_spec(spec);
  };
  const std::string fast_path = dir + "/sampled-equiv-fast.jsonl";
  const std::string ref_path = dir + "/sampled-equiv-reference.jsonl";
  const SimResult fast = traced(SimEngine::kFast, fast_path);
  const SimResult ref = traced(SimEngine::kReference, ref_path);
  EXPECT_TRUE(stats_identical(fast, ref));
  const std::string fast_trace = slurp(fast_path);
  EXPECT_FALSE(fast_trace.empty());
  EXPECT_EQ(fast_trace, slurp(ref_path));
  // One sample_window line per closed window.
  std::size_t windows = 0;
  for (std::size_t pos = fast_trace.find("\"ev\":\"sample_window\"");
       pos != std::string::npos;
       pos = fast_trace.find("\"ev\":\"sample_window\"", pos + 1)) {
    ++windows;
  }
  EXPECT_EQ(windows, fast.sampling.windows);
}

}  // namespace
}  // namespace redhip
