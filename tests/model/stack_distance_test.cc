// Analytic cross-check of the L1 against Mattson's stack-distance pass
// (the reuse-distance view of "Learning Forward Reuse Distance", PAPERS.md).
//
// For LRU, a reference hits a W-way set exactly when fewer than W distinct
// lines of its set were touched since its previous reference (its stack
// distance is below W).  One pass over the per-set stack distances
// therefore yields the hit count of every associativity at once.  On a
// one-core, Base, inclusive machine whose LLC never evicts, the L1 sees
// exactly the reference stream, so run() at each W must reproduce that
// count.  Nothing here shares code with the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace redhip {
namespace {

constexpr std::uint64_t kL1Sets = 8;
constexpr std::uint32_t kMaxWays = 16;
constexpr std::uint64_t kLine = 64;

std::vector<MemRef> draw_stream(std::uint64_t seed, std::uint64_t n) {
  // Mostly short reuse (a hot set per phase), some long reuse across the
  // whole pool, so the distance histogram spans 1..16 and beyond.
  Xoshiro256 rng(seed);
  std::vector<MemRef> out;
  std::uint64_t hot_base = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 500 == 0) hot_base = rng.below(1800);
    const std::uint64_t line = rng.below(4) == 0
                                   ? rng.below(2000)
                                   : hot_base + rng.below(1 + rng.below(200));
    MemRef r;
    r.addr = line * kLine + rng.below(kLine);
    r.gap = static_cast<std::uint16_t>(rng.below(8));
    r.is_write = rng.below(5) == 0;
    out.push_back(r);
  }
  return out;
}

// hits[w] = references whose per-set LRU stack distance is below w.
std::vector<std::uint64_t> mattson_hits(const std::vector<MemRef>& stream) {
  std::vector<std::list<std::uint64_t>> stacks(kL1Sets);
  std::vector<std::uint64_t> at_distance(kMaxWays + 1, 0);
  for (const MemRef& r : stream) {
    const std::uint64_t line = r.addr / kLine;
    std::list<std::uint64_t>& s = stacks[line % kL1Sets];
    const auto it = std::find(s.begin(), s.end(), line);
    if (it != s.end()) {
      const auto d = static_cast<std::uint64_t>(std::distance(s.begin(), it));
      if (d < kMaxWays) ++at_distance[d];
      s.erase(it);
    }
    s.push_front(line);
  }
  std::vector<std::uint64_t> hits(kMaxWays + 1, 0);
  for (std::uint32_t w = 1; w <= kMaxWays; ++w) {
    hits[w] = hits[w - 1] + at_distance[w - 1];
  }
  return hits;
}

LevelSpec level(std::uint64_t sets, std::uint32_t ways) {
  LevelSpec l;
  l.geom.size_bytes = sets * ways * kLine;
  l.geom.line_bytes = kLine;
  l.geom.ways = ways;
  l.energy.data_delay = 1;
  return l;
}

TEST(StackDistance, L1HitsMatchMattsonAtEveryAssociativity) {
  const std::vector<MemRef> stream = draw_stream(2024, 40'000);
  const std::vector<std::uint64_t> want = mattson_hits(stream);
  // The pass is not degenerate: more ways, strictly more hits.
  EXPECT_LT(want[1], want[kMaxWays]);
  for (std::uint32_t w = 1; w <= kMaxWays; ++w) {
    HierarchyConfig c;
    c.cores = 1;
    c.scheme = Scheme::kBase;
    c.inclusion = InclusionPolicy::kInclusive;
    // 4096 sets x 16 ways over a 2000-line pool: at most one line per set.
    c.levels = {level(kL1Sets, w), level(4096, 16)};
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(std::make_unique<VectorTraceSource>(stream));
    MulticoreSimulator sim(c, std::move(traces), {100});
    const SimResult r = sim.run(stream.size());
    ASSERT_EQ(r.levels[1].evictions, 0u) << w << " ways";
    EXPECT_EQ(r.levels[0].accesses, stream.size()) << w << " ways";
    EXPECT_EQ(r.levels[0].hits, want[w]) << w << " ways";
  }
}

}  // namespace
}  // namespace redhip
