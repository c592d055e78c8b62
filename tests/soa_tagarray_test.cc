// SoA tag-array equivalence: the partial-tag-lane + recency-word layout
// must be observably identical to a plain per-way model (tagarray_fuzz.h),
// and checkpoint snapshots must round-trip (and reject ranks that are not
// a permutation).  Whole simulations are checked against the independent
// hierarchy model in tests/model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/tag_array.h"
#include "common/rng.h"
#include "tagarray_fuzz.h"

namespace redhip {
namespace {

TEST(SoaTagArray, RandomizedEquivalenceVsShadowModel) {
  for (std::uint64_t seed : {0xF00Du, 0x5CA1Au}) {
    for (const CacheGeometry& g : fuzz::fuzz_geometries()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " ways=" + std::to_string(g.ways));
      fuzz::fuzz_against_shadow(g, seed++, 20'000);
    }
  }
}

// Build two arrays that should be in identical states and require they
// behave identically under a shared random op stream.
void expect_arrays_equivalent(TagArray& a, TagArray& b,
                              const CacheGeometry& g, std::uint64_t seed) {
  ASSERT_EQ(a.valid_count(), b.valid_count());
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    std::vector<LineAddr> la, lb;
    a.visit_valid_in_set(s, [&](LineAddr l) { la.push_back(l); });
    b.visit_valid_in_set(s, [&](LineAddr l) { lb.push_back(l); });
    ASSERT_EQ(la, lb) << "set " << s;
    for (LineAddr l : la) ASSERT_EQ(a.is_dirty(l), b.is_dirty(l));
  }
  ASSERT_EQ(a.ckpt_entries(), b.ckpt_entries());
  // Behavioural check: fills exercise the lane-derived invalid-way choice
  // and the replacement state, which the state walk above cannot see.
  Xoshiro256 rng(seed);
  for (int i = 0; i < 2'000; ++i) {
    const LineAddr line = fuzz::random_line(rng, g);
    TagArray::FillResult fa, fb;
    const bool ra = a.fill_if_absent(line, false, (i & 1) != 0, &fa);
    const bool rb = b.fill_if_absent(line, false, (i & 1) != 0, &fb);
    ASSERT_EQ(ra, rb) << "fill " << i;
    if (ra) {
      ASSERT_EQ(fa.way, fb.way) << "fill " << i;
      ASSERT_EQ(fa.evicted, fb.evicted) << "fill " << i;
      ASSERT_EQ(fa.victim, fb.victim) << "fill " << i;
    }
    const auto la = a.lookup(line);
    const auto lb = b.lookup(line);
    ASSERT_EQ(la.hit, lb.hit) << "lookup " << i;
    ASSERT_EQ(la.way, lb.way) << "lookup " << i;
    if (i % 7 == 0) {
      const LineAddr gone = fuzz::random_line(rng, g);
      ASSERT_EQ(a.invalidate(gone), b.invalidate(gone)) << "invalidate " << i;
    }
  }
  ASSERT_EQ(a.ckpt_entries(), b.ckpt_entries());
}

// Churn an array into an arbitrary state: fills, hits, dirties,
// invalidations.
void churn(TagArray& arr, const CacheGeometry& g, std::uint64_t seed,
           int ops) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const LineAddr line = fuzz::random_line(rng, g);
    switch (rng.below(4)) {
      case 0:
      case 1: {
        TagArray::FillResult fr;
        arr.fill_if_absent(line, rng.below(2) != 0, rng.below(2) != 0, &fr);
        break;
      }
      case 2:
        arr.lookup(line, rng.below(2) != 0);
        break;
      case 3:
        arr.invalidate(line);
        break;
    }
  }
}

TEST(SoaTagArray, CheckpointRoundTripRebuildsLanes) {
  std::uint64_t seed = 0xC0FFEE;
  for (const CacheGeometry& g : fuzz::fuzz_geometries()) {
    if (g.ways > 16) continue;  // wide LRU is not checkpointable
    SCOPED_TRACE("ways=" + std::to_string(g.ways));
    TagArray arr(g);
    churn(arr, g, seed++, 30'000);

    // Round-trip the snapshot into a fresh array; the partial-tag lanes and
    // recency words are not serialized, so equivalence proves the rebuild.
    TagArray restored(g);
    ASSERT_TRUE(restored.ckpt_restore_entries(arr.ckpt_entries()));
    expect_arrays_equivalent(arr, restored, g, seed++);
  }

  // Size mismatch must be rejected, not truncated.
  CacheGeometry g;
  g.ways = 16;
  g.size_bytes = 64 * 16 * std::uint64_t{64};
  TagArray arr(g);
  CacheGeometry small = g;
  small.size_bytes /= 2;
  TagArray other(small);
  EXPECT_FALSE(other.ckpt_restore_entries(arr.ckpt_entries()));
}

// A snapshot whose ranks in some set are not a permutation of 0..ways-1
// would make the victim pick evict the wrong way — a wrong number, not an
// error — so restore must refuse it and leave the array as it was.
TEST(SoaTagArray, RestoreRejectsRanksThatAreNotAPermutation) {
  constexpr std::uint64_t kRank = std::uint64_t{0xF} << 60;
  for (std::uint32_t ways : {2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("ways=" + std::to_string(ways));
    CacheGeometry g;
    g.ways = ways;
    g.size_bytes = 64 * ways * std::uint64_t{64};
    TagArray arr(g);
    churn(arr, g, 0xDEC0DE + ways, 5'000);
    const std::vector<std::uint64_t> good = arr.ckpt_entries();

    // Way 0 takes way 1's rank: one rank repeats, another goes missing.
    std::vector<std::uint64_t> dup = good;
    const std::uint64_t set = 5 * ways;
    dup[set] = (dup[set] & ~kRank) | (dup[set + 1] & kRank);
    TagArray target(g);
    churn(target, g, 0xBADC0DE, 5'000);
    const std::vector<std::uint64_t> before = target.ckpt_entries();
    EXPECT_FALSE(target.ckpt_restore_entries(dup));
    EXPECT_EQ(target.ckpt_entries(), before);

    // A rank outside 0..ways-1.
    if (ways < 16) {
      std::vector<std::uint64_t> out_of_range = good;
      out_of_range[set] |= kRank;
      EXPECT_FALSE(target.ckpt_restore_entries(out_of_range));
      EXPECT_EQ(target.ckpt_entries(), before);
    }

    ASSERT_TRUE(target.ckpt_restore_entries(good));
    EXPECT_EQ(target.ckpt_entries(), good);
  }

  // Arrays without embedded LRU carry no ranks at all.
  CacheGeometry wide;
  wide.ways = 32;
  wide.size_bytes = 64 * 32 * std::uint64_t{64};
  TagArray arr(wide);
  std::vector<std::uint64_t> ranked = arr.ckpt_entries();
  ranked[3] |= std::uint64_t{1} << 60;
  EXPECT_FALSE(arr.ckpt_restore_entries(ranked));
}

}  // namespace
}  // namespace redhip
