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

void TagArray::ckpt_save(ByteWriter& w) const {
  w.u64(entries_.size());
  std::uint8_t* out = w.extend(entries_.size() * sizeof(Entry));
  for (std::uint64_t s = 0; s < sets_; ++s) {
    const Entry* e = set_begin(s);
    std::uint8_t* set_out = out + s * geom_.ways * sizeof(Entry);
    if (embedded_lru_) {
      std::uint64_t word = recency_[s];
      for (std::uint32_t rank = 0; rank < geom_.ways; ++rank, word >>= 4) {
        const std::uint32_t way = word & 0xF;
        store_le64(set_out + way * sizeof(Entry),
                   e[way] | Entry{rank} << kRankShift);
      }
    } else {
      for (std::uint32_t way = 0; way < geom_.ways; ++way) {
        store_le64(set_out + way * sizeof(Entry), e[way]);
      }
    }
  }
}

bool TagArray::ckpt_load(ByteReader& r) {
  if (r.u64() != entries_.size()) return false;
  const std::uint8_t* in = r.take(entries_.size() * sizeof(Entry));
  if (in == nullptr) return false;
  // Pass 1 validates every set's ranks; the array changes only in pass 2,
  // once the whole section has checked out.  A set's ranks are a
  // permutation of 0..ways-1 exactly when their bits cover that mask and
  // nothing else; a repeated or out-of-range rank would make the recency
  // word name one way twice and evict the wrong line, so it is rejected
  // rather than restored.  Arrays without embedded LRU must carry rank 0
  // everywhere.
  const std::uint32_t want = embedded_lru_ ? (1u << geom_.ways) - 1 : 1;
  const auto rank_of = [in](std::uint64_t i) {
    return static_cast<std::uint32_t>(load_le64(in + i * sizeof(Entry)) >>
                                      kRankShift);
  };
  for (std::uint64_t s = 0; s < sets_; ++s) {
    std::uint32_t seen = 0;
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      seen |= 1u << rank_of(s * geom_.ways + w);
    }
    if (seen != want) return false;
  }
  std::uint64_t valid = 0;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    Entry* e = &entries_[s * geom_.ways];
    std::uint64_t word = 0;
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      const Entry ranked = load_le64(in + (s * geom_.ways + w) * sizeof(Entry));
      word |= std::uint64_t{w} << (4 * (ranked >> kRankShift));
      e[w] = ranked & ~kRankMask;
      valid += e[w] & kValidBit;
    }
    if (embedded_lru_) recency_[s] = word;
    rebuild_lane(s);
  }
  valid_count_ = valid;
  return true;
}

std::vector<std::uint64_t> TagArray::ckpt_entries() const {
  ByteWriter w;
  ckpt_save(w);
  ByteReader r(w.buffer().data(), w.buffer().size());
  return r.u64_vec();
}

bool TagArray::ckpt_restore_entries(const std::vector<std::uint64_t>& entries) {
  ByteWriter w;
  w.u64_vec(entries);
  ByteReader r(w.buffer().data(), w.buffer().size());
  return ckpt_load(r) && r.exhausted();
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
