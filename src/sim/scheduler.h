// CoreScheduler — the deterministic min-clock core interleave.
//
// Every simulated reference goes to the core with the smallest clock, ties
// broken by the lowest core id, so the shared LLC sees one reproducible
// arrival order.  Each core is one 64-bit key, `clock << 8 | core`: a single
// integer compare reproduces that lexicographic order because the core id
// occupies the low byte (HierarchyConfig::kMaxCores keeps it there), and
// keys are unique, so the pick sequence is fixed by the keys alone.
//
// The keys sit at the leaves of a tournament (loser) tree with
// P = max(2, bit_ceil(cores)) leaves.  Each internal node holds the loser
// of the match played there and the overall winner is cached.  The run
// loops only ever change the winner's key — advance its clock, or retire
// it with kRetired (padding leaves hold kRetired too) — and that replays
// exactly the winner's leaf-to-root path: log2(P) compare-and-select steps
// with no data-dependent branch and no swaps.  Cores advance in near
// round-robin (the top core stays on top after well under 1% of
// references), so a binary heap's sift-down ran its full depth every time
// anyway, with a data-dependent branch per level.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/config.h"

namespace redhip {

class CoreScheduler {
 public:
  // Key of a core that takes no further references.  Above every real key:
  // clocks stay below 2^56.
  static constexpr std::uint64_t kRetired = ~std::uint64_t{0};

  static std::uint64_t key(Cycles clock, CoreId core) {
    REDHIP_DCHECK(clock < (Cycles{1} << 56));
    return (clock << 8) | core;
  }

  // `keys[c]` is core c's key(clock, c), or kRetired for a core that is
  // already done.  Built from the current clocks, so a restored run (unequal
  // clocks) or a sampled segment starts from a valid tree.
  explicit CoreScheduler(std::span<const std::uint64_t> keys)
      : leaves_(std::max<std::size_t>(2, std::bit_ceil(keys.size()))),
        loser_(leaves_) {
    REDHIP_CHECK_MSG(keys.size() <= HierarchyConfig::kMaxCores,
                     "the scheduler key holds the core id in one byte");
    // Play the tournament bottom-up over a scratch copy of the winners;
    // node n's children are 2n and 2n + 1, leaf i is node leaves_ + i.
    std::vector<std::uint64_t> winner(2 * leaves_, kRetired);
    std::copy(keys.begin(), keys.end(), winner.begin() + leaves_);
    for (std::size_t n = leaves_; n-- > 1;) {
      winner[n] = std::min(winner[2 * n], winner[2 * n + 1]);
      loser_[n] = std::max(winner[2 * n], winner[2 * n + 1]);
    }
    winner_ = winner[1];
  }

  // True once every core has retired.
  bool done() const { return winner_ == kRetired; }
  // The core to run next.  Meaningless once done().
  CoreId top() const { return static_cast<CoreId>(winner_ & 0xFF); }

  // The top core's clock moved forward to `clock` (keys never decrease).
  // Forced inline, like replay(): the run loops are large enough that the
  // compiler would otherwise call out once per reference and keep the
  // winner in memory.
  [[gnu::always_inline]] void advance(Cycles clock) {
    replay(key(clock, top()));
  }
  // The top core takes no further references.
  [[gnu::always_inline]] void retire() { replay(kRetired); }

 private:
  // Replace the winner's leaf key with `k` and replay its path to the root.
  // The loser is stored unconditionally, derived as `k ^ other ^ winner`:
  // written as std::max, compilers turn the store into a branch that skips
  // it when the node keeps its loser — a data-dependent branch that near
  // round-robin advancement keeps flipping.
  [[gnu::always_inline]] void replay(std::uint64_t k) {
    for (std::size_t n = (leaves_ + top()) >> 1; n != 0; n >>= 1) {
      const std::uint64_t other = loser_[n];
      const std::uint64_t winner = std::min(k, other);
      loser_[n] = k ^ other ^ winner;
      k = winner;
    }
    winner_ = k;
  }

  std::size_t leaves_;
  std::vector<std::uint64_t> loser_;  // [1, leaves_): internal nodes
  std::uint64_t winner_ = kRetired;
};

}  // namespace redhip
