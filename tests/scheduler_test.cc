// Tests for the min-clock core scheduler (sim/scheduler.h): the tournament
// tree must pick exactly what the reference engine's linear scan picks —
// the smallest clock, ties to the lowest core id — over any sequence of
// advance and retire operations, for any core count up to the packed-key
// limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/scheduler.h"

namespace redhip {
namespace {

constexpr Cycles kGone = std::numeric_limits<Cycles>::max();

// The oracle: std::min_element over the clocks returns the first minimum,
// i.e. the lowest core id among the smallest clocks.  Retired cores read
// kGone.
class LinearScan {
 public:
  explicit LinearScan(std::vector<Cycles> clocks)
      : clocks_(std::move(clocks)) {}
  bool done() const {
    return std::all_of(clocks_.begin(), clocks_.end(),
                       [](Cycles c) { return c == kGone; });
  }
  CoreId top() const {
    return static_cast<CoreId>(
        std::min_element(clocks_.begin(), clocks_.end()) - clocks_.begin());
  }
  void advance(Cycles clock) { clocks_[top()] = clock; }
  void retire() { clocks_[top()] = kGone; }
  Cycles clock(CoreId c) const { return clocks_[c]; }

 private:
  std::vector<Cycles> clocks_;
};

CoreScheduler make_tree(const std::vector<Cycles>& clocks) {
  std::vector<std::uint64_t> keys(clocks.size(), CoreScheduler::kRetired);
  for (CoreId c = 0; c < clocks.size(); ++c) {
    if (clocks[c] != kGone) keys[c] = CoreScheduler::key(clocks[c], c);
  }
  return CoreScheduler(keys);
}

// Drive the tree and the oracle through the same random operations until
// every core has retired, requiring the same pick at every step.  Small
// clock steps (including 0) make ties common.
void expect_same_picks(std::vector<Cycles> start, std::uint64_t seed,
                       std::uint32_t retire_ppm, const std::string& what) {
  Xoshiro256 rng(seed);
  CoreScheduler tree = make_tree(start);
  LinearScan scan(std::move(start));
  std::uint64_t steps = 0;
  while (!scan.done()) {
    ASSERT_FALSE(tree.done()) << what << " step " << steps;
    const CoreId want = scan.top();
    ASSERT_EQ(tree.top(), want) << what << " step " << steps;
    if (rng.chance_ppm(retire_ppm)) {
      tree.retire();
      scan.retire();
    } else {
      const Cycles next = scan.clock(want) + rng.below(4);
      tree.advance(next);
      scan.advance(next);
    }
    ++steps;
  }
  EXPECT_TRUE(tree.done()) << what;
}

std::vector<std::uint32_t> core_counts() {
  std::vector<std::uint32_t> n;
  for (std::uint32_t c = 1; c <= 17; ++c) n.push_back(c);
  n.push_back(64);
  n.push_back(256);
  return n;
}

TEST(CoreScheduler, MatchesLinearScanFromAColdStart) {
  for (std::uint32_t cores : core_counts()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      // Retire rarely enough that every core advances many times.
      expect_same_picks(std::vector<Cycles>(cores, 0), seed * 7919 + cores,
                        cores >= 64 ? 2'000 : 20'000,
                        std::to_string(cores) + " cores, seed " +
                            std::to_string(seed));
    }
  }
}

TEST(CoreScheduler, MatchesLinearScanFromRestoredClocks) {
  // A restored run starts from unequal clocks, some cores already done.
  for (std::uint32_t cores : core_counts()) {
    Xoshiro256 rng(cores);
    for (int round = 0; round < 4; ++round) {
      std::vector<Cycles> clocks(cores);
      for (Cycles& c : clocks) {
        c = rng.chance_ppm(200'000) ? kGone : rng.below(64);
      }
      expect_same_picks(clocks, rng.next(), 20'000,
                        std::to_string(cores) + " cores restored, round " +
                            std::to_string(round));
    }
  }
}

TEST(CoreScheduler, EqualClocksPickTheLowestCoreId) {
  for (std::uint32_t cores : core_counts()) {
    CoreScheduler tree = make_tree(std::vector<Cycles>(cores, 5));
    // Every core at the same clock: ids come out in order, and advancing
    // each to a common later clock repeats the order.
    for (int lap = 0; lap < 2; ++lap) {
      for (CoreId c = 0; c < cores; ++c) {
        ASSERT_EQ(tree.top(), c) << cores << " cores, lap " << lap;
        tree.advance(10 + lap);
      }
    }
    for (CoreId c = 0; c < cores; ++c) {
      ASSERT_EQ(tree.top(), c) << cores << " cores";
      tree.retire();
    }
    EXPECT_TRUE(tree.done()) << cores << " cores";
  }
}

TEST(CoreScheduler, LargeClocksKeepTheirOrder) {
  // Clocks near the 2^56 packing limit still order above smaller ones and
  // below a retired core.
  const Cycles big = (Cycles{1} << 56) - 1;
  CoreScheduler tree = make_tree({big, kGone, big - 1});
  EXPECT_EQ(tree.top(), 2u);
  tree.advance(big);
  EXPECT_EQ(tree.top(), 0u);
  tree.retire();
  EXPECT_EQ(tree.top(), 2u);
  tree.retire();
  EXPECT_TRUE(tree.done());
}

TEST(CoreScheduler, AllRetiredIsDoneImmediately) {
  for (std::uint32_t cores : {1u, 3u, 8u}) {
    EXPECT_TRUE(make_tree(std::vector<Cycles>(cores, kGone)).done());
  }
}

TEST(CoreScheduler, RejectsMoreCoresThanTheKeyByteHolds) {
  const std::vector<std::uint64_t> keys(HierarchyConfig::kMaxCores + 1, 0);
  EXPECT_THROW(CoreScheduler{keys}, std::logic_error);
}

}  // namespace
}  // namespace redhip
