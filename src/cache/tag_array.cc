#include "cache/tag_array.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace redhip {

TagArray::TagArray(const CacheGeometry& geom, std::uint64_t seed)
    : geom_(geom) {
  geom_.validate();
  sets_ = geom_.sets();
  set_bits_ = geom_.set_bits();
  set_mask_ = sets_ - 1;
  bank_mask_ = geom_.banks - 1;
  lane_stride_ = (geom_.ways + 3) & ~3u;
  entries_.resize(sets_ * geom_.ways);
  // All ways start invalid: a zero lane word is exactly the invalid
  // encoding, so value-initialization establishes the lane invariant.  Only
  // a way count that is not a multiple of 4 (none in the paper machine)
  // has pad lanes to fill in.
  ptags_.resize(sets_ * lane_stride_);
  if (lane_stride_ != geom_.ways) {
    for (std::uint64_t s = 0; s < sets_; ++s) {
      std::fill(lane_begin(s) + geom_.ways, lane_begin(s) + lane_stride_,
                kPadLane);
    }
  }
  repl_ = ReplacementPolicy::create(geom_.replacement, sets_, geom_.ways, seed);
  lru_ = dynamic_cast<LruPolicy*>(repl_.get());
  embedded_lru_ = lru_ != nullptr && geom_.ways <= 16;
  if (embedded_lru_) {
    // Mirror LruPolicy's initial order (rank == way index, way 0 MRU): way
    // w in nibble w.  The side policy object goes unused.
    live_mask_ = geom_.ways == 16 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (4 * geom_.ways)) - 1;
    victim_shift_ = 4 * (geom_.ways - 1);
    recency_.assign(sets_, 0xFEDCBA9876543210 & live_mask_);
  }
}

std::vector<std::uint64_t> TagArray::ckpt_entries() const {
  std::vector<std::uint64_t> out = entries_;
  if (!embedded_lru_) return out;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    Entry* e = &out[s * geom_.ways];
    std::uint64_t word = recency_[s];
    for (std::uint32_t rank = 0; rank < geom_.ways; ++rank, word >>= 4) {
      e[word & 0xF] |= Entry{rank} << kRankShift;
    }
  }
  return out;
}

bool TagArray::ckpt_restore_entries(std::vector<std::uint64_t> entries) {
  if (entries.size() != entries_.size()) return false;
  // One pass over the caller's copy validates the ranks, builds the recency
  // words and strips the ranks; the array changes only once it all checks
  // out.  A set's ranks are a permutation of 0..ways-1 exactly when their
  // bits cover that mask and nothing else; a repeated or out-of-range rank
  // would make the recency word name one way twice and evict the wrong
  // line, so it is rejected rather than restored.  Arrays without embedded
  // LRU must carry rank 0 everywhere.
  const std::uint32_t want = embedded_lru_ ? (1u << geom_.ways) - 1 : 1;
  std::vector<std::uint64_t> recency(embedded_lru_ ? sets_ : 0);
  std::uint64_t valid = 0;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    Entry* e = &entries[s * geom_.ways];
    std::uint32_t seen = 0;
    std::uint64_t word = 0;
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      const auto rank = static_cast<std::uint32_t>(e[w] >> kRankShift);
      seen |= 1u << rank;
      word |= std::uint64_t{w} << (4 * rank);
      e[w] &= ~kRankMask;
      valid += e[w] & kValidBit;
    }
    if (seen != want) return false;
    if (embedded_lru_) recency[s] = word;
  }
  entries_ = std::move(entries);
  recency_ = std::move(recency);
  valid_count_ = valid;
  for (std::uint64_t s = 0; s < sets_; ++s) rebuild_lane(s);
  return true;
}

void TagArray::for_each_valid_in_set(
    std::uint64_t set, const std::function<void(LineAddr)>& fn) const {
  visit_valid_in_set(set, fn);
}

void TagArray::for_each_valid(const std::function<void(LineAddr)>& fn) const {
  for (std::uint64_t s = 0; s < sets_; ++s) for_each_valid_in_set(s, fn);
}

std::uint64_t TagArray::valid_count_in_set(std::uint64_t set) const {
  const Entry* e = set_begin(set);
  std::uint64_t n = 0;
  for (std::uint32_t w = 0; w < geom_.ways; ++w) n += e[w] & kValidBit;
  return n;
}

}  // namespace redhip
