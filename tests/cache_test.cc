// Tests for src/cache: replacement policies, TagArray behaviour, geometry
// validation, and the inclusion-related primitives the simulator builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cache/geometry.h"
#include "cache/replacement.h"
#include "cache/tag_array.h"
#include "common/bytestream.h"
#include "common/fnv.h"
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
//
// TagArray keeps every policy's state; these drive one set through it and
// read the policy off the victims.

// Fill a one-set array with lines 0..ways-1 (way w holds line w, touched
// in way order).
TagArray one_set(ReplacementKind kind, std::uint32_t ways,
                 std::uint64_t seed = 0) {
  TagArray arr(small_geom(ways * std::uint64_t{64}, ways, kind), seed);
  for (LineAddr l = 0; l < ways; ++l) EXPECT_EQ(arr.fill(l).way, l);
  return arr;
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  // Embedded (recency word) and wide (rank bytes) LRU.
  for (std::uint32_t ways : {4u, 32u}) {
    SCOPED_TRACE(ways);
    TagArray arr = one_set(ReplacementKind::kLru, ways);
    // Order now: ways-1 (MRU) ... 1 0 (LRU).
    EXPECT_TRUE(arr.lookup(0).hit);
    EXPECT_EQ(arr.fill(ways).victim, 1u);
    EXPECT_TRUE(arr.lookup(2).hit);
    EXPECT_EQ(arr.fill(ways + 1).victim, 3u);
  }
}

TEST(Lru, RanksStayAPermutation) {
  // A snapshot restores only when every set's ranks are a permutation of
  // 0..ways-1 (SoaTagArray.RestoreRejectsRanksThatAreNotAPermutation).
  for (std::uint32_t ways : {8u, 32u}) {
    SCOPED_TRACE(ways);
    const CacheGeometry g = small_geom(2 * ways * std::uint64_t{64}, ways);
    TagArray arr(g);
    Xoshiro256 rng(5);
    for (int i = 0; i < 1000; ++i) {
      const LineAddr line = rng.below(4 * ways);
      if (!arr.lookup(line).hit) arr.fill(line);
      ByteWriter w;
      arr.ckpt_save(w);
      ByteReader r(w.buffer().data(), w.buffer().size());
      TagArray copy(g);
      ASSERT_TRUE(copy.ckpt_load(r) && r.exhausted());
    }
  }
}

TEST(TreePlru, VictimNeverMostRecentlyTouched) {
  TagArray arr = one_set(ReplacementKind::kTreePlru, 8);
  std::vector<LineAddr> line_at{0, 1, 2, 3, 4, 5, 6, 7};
  Xoshiro256 rng(9);
  for (LineAddr next = 8; next < 2008; ++next) {
    const LineAddr touched = line_at[rng.below(8)];
    ASSERT_TRUE(arr.lookup(touched).hit);
    const TagArray::FillResult r = arr.fill(next);
    ASSERT_TRUE(r.evicted);
    EXPECT_NE(r.victim, touched);
    line_at[r.way] = next;
  }
}

TEST(TreePlru, CyclicTouchApproximatesLru) {
  // Fills touched ways 0,1,2,3 in order; PLRU picks 0 (the oldest).
  TagArray arr = one_set(ReplacementKind::kTreePlru, 4);
  EXPECT_EQ(arr.fill(4).victim, 0u);
}

TEST(Nru, VictimHasClearReferenceBit) {
  // Touching way 3 set the last clear bit, so a new epoch kept only it.
  TagArray arr = one_set(ReplacementKind::kNru, 4);
  EXPECT_TRUE(arr.lookup(1).hit);  // bits {1, 3}
  EXPECT_EQ(arr.fill(4).victim, 0u);  // way 0; bits {0, 1, 3}
  EXPECT_TRUE(arr.lookup(3).hit);
  EXPECT_EQ(arr.fill(5).victim, 2u);  // way 2, the one clear bit
}

TEST(Nru, EpochResetKeepsLastTouched) {
  TagArray arr = one_set(ReplacementKind::kNru, 2);  // reset kept way 1
  EXPECT_EQ(arr.fill(2).victim, 0u);  // all set again -> reset keeps way 0
  EXPECT_EQ(arr.fill(3).victim, 1u);
}

std::vector<std::uint32_t> random_victim_ways(std::uint32_t ways,
                                              std::uint64_t seed, int n) {
  TagArray arr = one_set(ReplacementKind::kRandom, ways, seed);
  std::vector<std::uint32_t> got;
  for (LineAddr next = ways; got.size() < static_cast<std::size_t>(n);
       ++next) {
    got.push_back(arr.fill(next).way);
  }
  return got;
}

TEST(Random, DeterministicUnderSeed) {
  EXPECT_EQ(random_victim_ways(8, 123, 100), random_victim_ways(8, 123, 100));
  EXPECT_NE(random_victim_ways(8, 123, 100), random_victim_ways(8, 124, 100));
}

TEST(Random, CoversAllWays) {
  const std::vector<std::uint32_t> ways = random_victim_ways(4, 7, 200);
  EXPECT_EQ(std::set<std::uint32_t>(ways.begin(), ways.end()).size(), 4u);
}

// Victim streams pinned per policy.  One seeded stream of lookups, fills
// (with and without the prefetched and dirty marks) and invalidations runs
// through a 16-set array; the digest covers every fill's way, whether it
// evicted, and its victim.  The pins were recorded from the per-policy
// classes the array's own replacement state replaced, so a change to any
// policy's victim choice, promotion rule or initial order shows here.
std::uint64_t victim_digest(ReplacementKind kind, std::uint32_t ways) {
  const CacheGeometry g = small_geom(16 * ways * std::uint64_t{64}, ways, kind);
  TagArray arr(g, 0x5EED);
  Xoshiro256 rng(0xD1CE + ways);
  Fnv1a h;
  const std::uint64_t universe = g.lines() * 3;
  for (int i = 0; i < 40'000; ++i) {
    const LineAddr line = rng.below(universe);
    const std::uint64_t op = rng.below(8);
    if (op == 0) {
      arr.invalidate(line);
      continue;
    }
    if (op < 3) {
      TagArray::FillResult r;
      if (!arr.fill_if_absent(line, op == 1, op == 2, &r)) continue;
      h.u32(r.way).u8(r.evicted).u64(r.victim);
    } else if (!arr.lookup(line, op == 3).hit) {
      const TagArray::FillResult r = arr.fill(line);
      h.u32(r.way).u8(r.evicted).u64(r.victim);
    }
  }
  return h.digest();
}

TEST(ReplacementPin, VictimStreamsMatchPinnedDigests) {
  struct Pin {
    ReplacementKind kind;
    std::uint32_t ways;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {ReplacementKind::kTreePlru, 2, 0xa0155ff846272f2f},
      {ReplacementKind::kTreePlru, 8, 0xb0c36a2810e6859a},
      {ReplacementKind::kTreePlru, 32, 0xe3d0360c3d4fbce7},
      {ReplacementKind::kNru, 1, 0xd28709f59e703b62},
      {ReplacementKind::kNru, 4, 0x128aac98c0af0dae},
      {ReplacementKind::kNru, 32, 0x288c817836512a62},
      {ReplacementKind::kRandom, 4, 0x8e4a9cb45792da7c},
      {ReplacementKind::kRandom, 16, 0x1f186550e09304bc},
      {ReplacementKind::kLru, 4, 0x9c368e7f1e4382fe},
      {ReplacementKind::kLru, 16, 0x9e5353786f0d43e8},
      {ReplacementKind::kLru, 32, 0xb491a71ed2238add},
      {ReplacementKind::kLru, 80, 0x9b8b82705c562b2c},
      {ReplacementKind::kLru, 255, 0xe085a56f2ee881e3},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(victim_digest(p.kind, p.ways), p.digest)
        << to_string(p.kind) << " " << p.ways << "-way";
  }
}

TEST(Replacement, TagArrayRunsEveryKind) {
  // Each kind reaches its own policy: the same stream evicts differently.
  std::set<std::uint64_t> digests;
  for (ReplacementKind k :
       {ReplacementKind::kLru, ReplacementKind::kTreePlru,
        ReplacementKind::kNru, ReplacementKind::kRandom}) {
    EXPECT_EQ(TagArray(small_geom(4_KiB, 4, k)).geometry().replacement, k);
    digests.insert(victim_digest(k, 4));
  }
  EXPECT_EQ(digests.size(), 4u);
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
