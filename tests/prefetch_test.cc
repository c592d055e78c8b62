// Tests for src/prefetch: the stride prefetcher's reference prediction
// table — learning, confidence state machine, degree/distance emission, and
// aliasing behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "harness/run.h"
#include "prefetch/stride_prefetcher.h"

namespace redhip {
namespace {

using State = StridePrefetcher::State;

StridePrefetcherConfig cfg(std::uint32_t degree = 2,
                           std::uint32_t distance = 1) {
  StridePrefetcherConfig c;
  c.index_bits = 8;
  c.degree = degree;
  c.distance = distance;
  return c;
}

std::vector<LineAddr> observe(StridePrefetcher& p, std::uint32_t pc,
                              Addr addr) {
  std::vector<LineAddr> out;
  p.observe(pc, addr, out);
  return out;
}

TEST(Stride, NoPrefetchBeforeConfidence) {
  StridePrefetcher p(cfg());
  EXPECT_TRUE(observe(p, 1, 1000).empty());  // allocate
  EXPECT_TRUE(observe(p, 1, 1064).empty());  // first stride observed
  EXPECT_EQ(p.state_of(1), State::kTransient);
}

TEST(Stride, SteadyAfterTwoMatchingStrides) {
  StridePrefetcher p(cfg(1, 1));
  observe(p, 1, 1000);
  observe(p, 1, 1064);
  const auto out = observe(p, 1, 1128);  // stride 64 confirmed
  EXPECT_EQ(p.state_of(1), State::kSteady);
  EXPECT_EQ(p.stride_of(1), 64);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (1128u + 64u) >> 6);
}

TEST(Stride, DegreeEmitsConsecutiveTargets) {
  StridePrefetcher p(cfg(3, 1));
  observe(p, 2, 0x10000);
  observe(p, 2, 0x10000 + 256);
  const auto out = observe(p, 2, 0x10000 + 512);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (0x10000u + 768) >> 6);
  EXPECT_EQ(out[1], (0x10000u + 1024) >> 6);
  EXPECT_EQ(out[2], (0x10000u + 1280) >> 6);
}

TEST(Stride, DistanceSkipsAhead) {
  StridePrefetcher p(cfg(1, 4));
  observe(p, 3, 0);
  observe(p, 3, 64);
  const auto out = observe(p, 3, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (128u + 4 * 64) >> 6);
}

TEST(Stride, SmallStridesDedupSameLineTargets) {
  // An 8-byte stride keeps hitting the same line; targets inside the
  // triggering line (or repeated lines) must not be emitted.
  StridePrefetcher p(cfg(2, 1));
  observe(p, 4, 4096);  // line-aligned so the +8/+16 targets stay in-line
  observe(p, 4, 4104);
  const auto out = observe(p, 4, 4112);
  EXPECT_TRUE(out.empty()) << "prefetching the current line is pointless";
}

TEST(Stride, NegativeStridesWork) {
  StridePrefetcher p(cfg(1, 1));
  observe(p, 5, 10'000);
  observe(p, 5, 10'000 - 128);
  const auto out = observe(p, 5, 10'000 - 256);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (10'000u - 384) >> 6);
  EXPECT_EQ(p.stride_of(5), -128);
}

TEST(Stride, SteadyDegradesOnMispredictButRecovers) {
  StridePrefetcher p(cfg(1, 1));
  observe(p, 6, 0);
  observe(p, 6, 64);
  observe(p, 6, 128);
  EXPECT_EQ(p.state_of(6), State::kSteady);
  observe(p, 6, 5000);  // break the pattern
  EXPECT_EQ(p.state_of(6), State::kTransient);
  EXPECT_TRUE(observe(p, 6, 5064).empty());  // new stride, not yet confident
  const auto out = observe(p, 6, 5128);
  EXPECT_EQ(p.state_of(6), State::kSteady);
  EXPECT_FALSE(out.empty());
}

TEST(Stride, ZeroStrideNeverPrefetches) {
  StridePrefetcher p(cfg(2, 1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(observe(p, 7, 4096).empty());
  }
}

TEST(Stride, PcAliasingReallocatesEntry) {
  StridePrefetcher p(cfg(1, 1));
  const std::uint32_t pc_a = 0x10;
  const std::uint32_t pc_b = 0x10 + (1u << 8);  // same index, different tag
  observe(p, pc_a, 0);
  observe(p, pc_a, 64);
  observe(p, pc_a, 128);
  EXPECT_EQ(p.state_of(pc_a), State::kSteady);
  observe(p, pc_b, 9999);  // steals the entry
  EXPECT_EQ(p.state_of(pc_a), State::kInitial);
  EXPECT_EQ(p.state_of(pc_b), State::kInitial);
}

TEST(Stride, IndependentPcsLearnIndependently) {
  StridePrefetcher p(cfg(1, 1));
  for (int i = 0; i < 4; ++i) {
    observe(p, 1, static_cast<Addr>(i) * 64);
    observe(p, 2, 1_MiB + static_cast<Addr>(i) * 4096);
  }
  EXPECT_EQ(p.stride_of(1), 64);
  EXPECT_EQ(p.stride_of(2), 4096);
  EXPECT_EQ(p.state_of(1), State::kSteady);
  EXPECT_EQ(p.state_of(2), State::kSteady);
}

TEST(Stride, TableLookupsCounted) {
  StridePrefetcher p(cfg());
  for (int i = 0; i < 25; ++i) observe(p, 9, static_cast<Addr>(i) * 64);
  EXPECT_EQ(p.events().table_lookups, 25u);
}

TEST(Stride, EmitsLinesOfTheGivenSize) {
  StridePrefetcher p(cfg(1, 1), /*line_shift=*/7);
  observe(p, 1, 0);
  observe(p, 1, 128);
  const auto out = observe(p, 1, 256);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 384u >> 7);
}

// The prefetcher names lines of the machine's own size: on a streaming
// workload nearly every prefetch is used whatever the line size.  With
// 64 B lines assumed on a 32 B or 128 B machine, every prefetch names the
// wrong line and none is used.
TEST(Stride, PrefetchesAreUsefulOnEveryLineSize) {
  for (const std::uint32_t line_bytes : {32u, 64u, 128u}) {
    RunSpec spec;
    spec.bench = BenchmarkId::kBwaves;
    spec.scheme = Scheme::kRedhip;
    spec.scale = 16;
    spec.refs_per_core = 20'000;
    spec.prefetch = true;
    spec.tweak = [line_bytes](HierarchyConfig& c) {
      for (LevelSpec& lvl : c.levels) lvl.geom.line_bytes = line_bytes;
    };
    const PrefetchEvents pf = run_spec(spec).prefetch;
    ASSERT_GT(pf.issued, 1'000u) << line_bytes;
    EXPECT_GT(pf.useful, pf.issued * 9 / 10) << line_bytes;
  }
}

TEST(Stride, ConfigValidation) {
  StridePrefetcherConfig c;
  c.index_bits = 2;
  EXPECT_THROW(StridePrefetcher{c}, std::logic_error);
  c = StridePrefetcherConfig{};
  c.degree = 0;
  EXPECT_THROW(StridePrefetcher{c}, std::logic_error);
  c = StridePrefetcherConfig{};
  c.distance = 0;
  EXPECT_THROW(StridePrefetcher{c}, std::logic_error);
}

}  // namespace
}  // namespace redhip
