// Tests for src/cache: replacement policies, TagArray behaviour, geometry
// validation, and the inclusion-related primitives the simulator builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cache/geometry.h"
#include "cache/replacement.h"
#include "cache/tag_array.h"
#include "common/rng.h"

namespace redhip {
namespace {

CacheGeometry small_geom(std::uint64_t size = 8_KiB, std::uint32_t ways = 4,
                         ReplacementKind repl = ReplacementKind::kLru) {
  CacheGeometry g;
  g.size_bytes = size;
  g.ways = ways;
  g.replacement = repl;
  return g;
}

TEST(Geometry, DerivedQuantities) {
  CacheGeometry g = small_geom(64_KiB, 8);
  EXPECT_EQ(g.lines(), 1024u);
  EXPECT_EQ(g.sets(), 128u);
  EXPECT_EQ(g.set_bits(), 7u);
  EXPECT_EQ(g.line_shift(), 6u);
  g.validate();
}

TEST(Geometry, RejectsNonPow2Sets) {
  CacheGeometry g = small_geom(8_KiB, 4);
  g.size_bytes = 3 * 1024;  // 48 lines / 4 ways = 12 sets
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Geometry, RejectsTooManyBanks) {
  CacheGeometry g = small_geom(8_KiB, 4);  // 32 sets
  g.banks = 64;
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Geometry, PaperLlcGeometry) {
  CacheGeometry g = small_geom(64_MiB, 16);
  EXPECT_EQ(g.lines(), 1u << 20);  // "In a 64MB cache, there are 1M tags"
  EXPECT_EQ(g.sets(), 1u << 16);   // k = 16
  g.validate();
}

// ------------------------------------------------------------- replacement

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.touch(0, w);
  // Order now: 3 (MRU) 2 1 0 (LRU).
  EXPECT_EQ(lru.victim(0), 0u);
  lru.touch(0, 0);
  EXPECT_EQ(lru.victim(0), 1u);
  lru.touch(0, 1);
  EXPECT_EQ(lru.victim(0), 2u);
}

TEST(Lru, RanksStayAPermutation) {
  LruPolicy lru(2, 8);
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t set = rng.below(2);
    lru.touch(set, static_cast<std::uint32_t>(rng.below(8)));
    std::set<std::uint8_t> ranks;
    for (std::uint32_t w = 0; w < 8; ++w) ranks.insert(lru.rank(set, w));
    ASSERT_EQ(ranks.size(), 8u);
    ASSERT_EQ(*ranks.rbegin(), 7u);
  }
}

TEST(TreePlru, VictimNeverMostRecentlyTouched) {
  TreePlruPolicy plru(1, 8);
  Xoshiro256 rng(9);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t w = static_cast<std::uint32_t>(rng.below(8));
    plru.touch(0, w);
    EXPECT_NE(plru.victim(0), w);
  }
}

TEST(TreePlru, CyclicTouchApproximatesLru) {
  TreePlruPolicy plru(1, 4);
  // Touch 0,1,2,3 in order; PLRU should pick 0 (the oldest) as victim.
  for (std::uint32_t w = 0; w < 4; ++w) plru.touch(0, w);
  EXPECT_EQ(plru.victim(0), 0u);
}

TEST(Nru, VictimHasClearReferenceBit) {
  NruPolicy nru(1, 4);
  nru.touch(0, 1);
  nru.touch(0, 2);
  const std::uint32_t v = nru.victim(0);
  EXPECT_TRUE(v == 0 || v == 3);
}

TEST(Nru, EpochResetKeepsLastTouched) {
  NruPolicy nru(1, 2);
  nru.touch(0, 0);
  nru.touch(0, 1);  // all bits set -> reset, way 1 kept
  EXPECT_EQ(nru.victim(0), 0u);
}

TEST(Random, DeterministicUnderSeed) {
  RandomPolicy a(8, 123), b(8, 123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(Random, CoversAllWays) {
  RandomPolicy p(4, 7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(p.victim(0));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Replacement, FactoryProducesRequestedKinds) {
  for (ReplacementKind k :
       {ReplacementKind::kLru, ReplacementKind::kTreePlru,
        ReplacementKind::kNru, ReplacementKind::kRandom}) {
    auto p = ReplacementPolicy::create(k, 16, 4, 1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), k);
  }
}

// ----------------------------------------------------------------- TagArray

TEST(TagArray, MissThenFillThenHit) {
  TagArray arr(small_geom(), 1);
  EXPECT_FALSE(arr.lookup(100).hit);
  EXPECT_FALSE(arr.fill(100).evicted);
  EXPECT_TRUE(arr.lookup(100).hit);
  EXPECT_TRUE(arr.contains(100));
  EXPECT_EQ(arr.valid_count(), 1u);
}

TEST(TagArray, ContainsDoesNotPerturbLru) {
  TagArray arr(small_geom(512, 4));  // 2 sets
  // Fill set 0 fully: lines 0, 2, 4, 6 map to set 0 (2 sets).
  for (LineAddr l : {0u, 2u, 4u, 6u}) arr.fill(l);
  // contains() must not promote line 0; lookup() must.
  EXPECT_TRUE(arr.contains(0));
  auto r = arr.fill(8);  // set 0 full: evicts LRU = line 0
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 0u);
}

TEST(TagArray, LookupPromotesAgainstEviction) {
  TagArray arr(small_geom(512, 4));
  for (LineAddr l : {0u, 2u, 4u, 6u}) arr.fill(l);
  EXPECT_TRUE(arr.lookup(0).hit);  // promote 0; LRU is now 2
  auto r = arr.fill(8);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 2u);
}

TEST(TagArray, EvictionOnlyWhenSetFull) {
  TagArray arr(small_geom(512, 4));  // 2 sets x 4 ways
  EXPECT_FALSE(arr.fill(1).evicted);
  EXPECT_FALSE(arr.fill(3).evicted);
  EXPECT_FALSE(arr.fill(5).evicted);
  EXPECT_FALSE(arr.fill(7).evicted);
  EXPECT_TRUE(arr.fill(9).evicted);  // 5th line into set 1
  EXPECT_EQ(arr.valid_count(), 4u);
}

TEST(TagArray, InvalidateFreesWay) {
  TagArray arr(small_geom(512, 4));
  for (LineAddr l : {0u, 2u, 4u, 6u}) arr.fill(l);
  EXPECT_TRUE(arr.invalidate(4));
  EXPECT_FALSE(arr.invalidate(4));  // already gone
  EXPECT_FALSE(arr.contains(4));
  EXPECT_FALSE(arr.fill(8).evicted);  // reuses the freed way
}

TEST(TagArray, DistinctTagsSameSetCoexist) {
  TagArray arr(small_geom(512, 4));  // 2 sets
  // Lines 0, 2, 4 all land in set 0 with different tags.
  arr.fill(0);
  arr.fill(2);
  arr.fill(4);
  EXPECT_TRUE(arr.contains(0));
  EXPECT_TRUE(arr.contains(2));
  EXPECT_TRUE(arr.contains(4));
  EXPECT_EQ(arr.valid_count_in_set(0), 3u);
  EXPECT_EQ(arr.valid_count_in_set(1), 0u);
}

TEST(TagArray, PrefetchMarkConsumedOnFirstHit) {
  TagArray arr(small_geom(), 1);
  arr.fill(42, /*prefetched=*/true);
  auto first = arr.lookup(42);
  EXPECT_TRUE(first.hit);
  EXPECT_TRUE(first.was_prefetched);
  auto second = arr.lookup(42);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.was_prefetched);
}

TEST(TagArray, PrefetchMarkSurvivesUntouchedEviction) {
  TagArray arr(small_geom(512, 4));
  arr.fill(0, true);
  arr.fill(2);
  arr.fill(4);
  arr.fill(6);
  auto r = arr.fill(8);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 0u);
  EXPECT_TRUE(r.victim_was_prefetched);
}

TEST(TagArray, ForEachValidInSetEnumeratesExactly) {
  TagArray arr(small_geom(512, 4));
  arr.fill(1);
  arr.fill(3);
  arr.fill(0);
  std::vector<LineAddr> set1;
  arr.for_each_valid_in_set(1, [&](LineAddr l) { set1.push_back(l); });
  std::sort(set1.begin(), set1.end());
  EXPECT_EQ(set1, (std::vector<LineAddr>{1, 3}));
  std::vector<LineAddr> all;
  arr.for_each_valid([&](LineAddr l) { all.push_back(l); });
  EXPECT_EQ(all.size(), 3u);
}

TEST(TagArray, SetMappingUsesLowLineBits) {
  TagArray arr(small_geom(8_KiB, 4));  // 32 sets
  EXPECT_EQ(arr.set_of(0x12345), 0x12345u & 31);
}

// Property: under random fill/invalidate churn the array never exceeds its
// capacity, never loses a line it did not evict, and contains() agrees with
// an exact reference model.
TEST(TagArrayProperty, AgreesWithReferenceModelUnderChurn) {
  const CacheGeometry g = small_geom(4_KiB, 4);  // 16 sets, 64 lines
  TagArray arr(g, 77);
  std::set<LineAddr> model;
  Xoshiro256 rng(555);
  for (int step = 0; step < 20'000; ++step) {
    const LineAddr line = rng.below(512);  // 8x capacity -> heavy conflict
    const std::uint64_t op = rng.below(10);
    if (op < 6) {
      if (!model.count(line)) {
        auto r = arr.fill(line);
        model.insert(line);
        if (r.evicted) model.erase(r.victim);
      } else {
        EXPECT_TRUE(arr.lookup(line).hit);
      }
    } else if (op < 8) {
      EXPECT_EQ(arr.contains(line), model.count(line) == 1);
    } else {
      EXPECT_EQ(arr.invalidate(line), model.erase(line) == 1);
    }
    ASSERT_EQ(arr.valid_count(), model.size());
    ASSERT_LE(arr.valid_count(), g.lines());
  }
  for (LineAddr l : model) EXPECT_TRUE(arr.contains(l));
}

// Property: per-set occupancy never exceeds associativity and victims always
// come from the same set as the incoming line.
TEST(TagArrayProperty, VictimsShareTheIncomingSet) {
  TagArray arr(small_geom(4_KiB, 4), 3);
  Xoshiro256 rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const LineAddr line = rng.below(1024);
    if (arr.contains(line)) continue;
    auto r = arr.fill(line);
    if (r.evicted) {
      ASSERT_EQ(arr.set_of(r.victim), arr.set_of(line));
    }
    for (std::uint64_t s = 0; s < arr.sets(); ++s) {
      ASSERT_LE(arr.valid_count_in_set(s), 4u);
    }
  }
}

// The simulator's L1 memo serves a repeat reference to a set's
// last-touched line without calling lookup(), even after touches to other
// sets and invalidations of other lines in its set.  That is sound only if
// every policy treats re-touching a set's last-touched way as a no-op.
// victims_under runs one seeded stream of lookups, fills and invalidations
// and returns its victims; after every reference it may also look up one
// more line of a random set.
enum class Retouch {
  kNone,
  kLastTouched,  // the set's last-touched line: what the memo skips
  kOther,        // another line of the set: a real use (the control)
};

std::vector<LineAddr> victims_under(const CacheGeometry& g, Retouch retouch) {
  constexpr LineAddr kNone = ~LineAddr{0};
  TagArray arr(g, 42);
  Xoshiro256 rng(7);
  std::vector<LineAddr> last(arr.sets(), kNone);  // last-touched line per set
  std::vector<LineAddr> victims;
  const std::uint64_t universe = g.lines() * 3;
  for (int i = 0; i < 20'000; ++i) {
    const LineAddr line = rng.below(universe);
    const std::uint64_t set = arr.set_of(line);
    if (rng.below(8) == 0) {
      // Back-invalidation: any line may leave; the memo forgets its own.
      arr.invalidate(line);
      if (last[set] == line) last[set] = kNone;
    } else {
      if (!arr.lookup(line).hit) {
        const TagArray::FillResult r = arr.fill(line);
        if (r.evicted) victims.push_back(r.victim);
      }
      last[set] = line;
    }
    // Both runs draw the same numbers, so the streams stay aligned.
    const std::uint64_t s = rng.below(arr.sets());
    const LineAddr other = rng.below(universe);
    if (retouch == Retouch::kNone || last[s] == kNone) continue;
    if (retouch == Retouch::kLastTouched) {
      EXPECT_TRUE(arr.lookup(last[s]).hit);
    } else if (arr.set_of(other) == s && other != last[s]) {
      arr.lookup(other);
    }
  }
  return victims;
}

TEST(ReplacementProperty, RetouchingTheLastTouchedWayChangesNothing) {
  struct Policy {
    const char* name;
    std::uint64_t size;
    std::uint32_t ways;
    ReplacementKind kind;
  };
  // 16 sets each; LRU on both sides of the 16-way recency-word limit.
  const Policy policies[] = {
      {"lru 4-way", 4_KiB, 4, ReplacementKind::kLru},
      {"lru 16-way", 16_KiB, 16, ReplacementKind::kLru},
      {"lru 32-way", 32_KiB, 32, ReplacementKind::kLru},
      {"tree-plru 8-way", 8_KiB, 8, ReplacementKind::kTreePlru},
      {"nru 4-way", 4_KiB, 4, ReplacementKind::kNru},
      {"nru 8-way", 8_KiB, 8, ReplacementKind::kNru},
      {"random 4-way", 4_KiB, 4, ReplacementKind::kRandom},
  };
  for (const Policy& p : policies) {
    SCOPED_TRACE(p.name);
    const CacheGeometry g = small_geom(p.size, p.ways, p.kind);
    const std::vector<LineAddr> plain = victims_under(g, Retouch::kNone);
    EXPECT_GT(plain.size(), 1'000u);
    EXPECT_EQ(victims_under(g, Retouch::kLastTouched), plain);
  }
}

TEST(ReplacementProperty, RetouchingAnotherWayIsAUse) {
  // The control for the test above: the stream is sensitive to touches.
  const CacheGeometry g = small_geom(4_KiB, 4, ReplacementKind::kLru);
  EXPECT_NE(victims_under(g, Retouch::kOther),
            victims_under(g, Retouch::kNone));
}

}  // namespace
}  // namespace redhip
