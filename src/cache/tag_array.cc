#include "cache/tag_array.h"

#include <algorithm>
#include <bit>
#include <bitset>
#include <cstring>

#include "common/check.h"

namespace redhip {

TagArray::TagArray(const CacheGeometry& geom, std::uint64_t seed)
    : geom_(geom), rng_(seed) {
  geom_.validate();
  sets_ = geom_.sets();
  set_bits_ = geom_.set_bits();
  set_mask_ = sets_ - 1;
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
  // LRU starts every set in way-index order (way 0 MRU, the last way LRU):
  // way w in nibble w of the recency word, or rank w in rank_.  Tree-PLRU
  // and NRU start with every bit clear.
  const bool lru = geom_.replacement == ReplacementKind::kLru;
  embedded_lru_ = lru && geom_.ways <= 16;
  if (embedded_lru_) {
    live_mask_ = geom_.ways == 16 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (4 * geom_.ways)) - 1;
    victim_shift_ = 4 * (geom_.ways - 1);
    set_word_.assign(sets_, 0xFEDCBA9876543210 & live_mask_);
  } else if (lru) {
    rank_.resize(sets_ * geom_.ways);
    for (std::size_t i = 0; i < rank_.size(); ++i) {
      rank_[i] = static_cast<std::uint8_t>(i % geom_.ways);
    }
  } else if (geom_.replacement != ReplacementKind::kRandom) {
    set_word_.assign(sets_, 0);
  }
}

void TagArray::touch_side(std::uint64_t set, std::uint32_t way) {
  switch (geom_.replacement) {
    case ReplacementKind::kLru: {
      // Promote to rank 0 and age only the ways that were more recent, so
      // the ranks stay a permutation of 0..ways-1.  Re-touching the MRU
      // way is a no-op.
      std::uint8_t* r = &rank_[set * geom_.ways];
      const std::uint8_t old = r[way];
      if (old == 0) return;
      for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (r[w] < old) ++r[w];
      }
      r[way] = 0;
      return;
    }
    case ReplacementKind::kTreePlru: {
      // Walk root -> leaf; at each node point the bit *away* from the
      // touched way.
      const auto levels =
          static_cast<std::uint32_t>(std::countr_zero(geom_.ways));
      std::uint64_t& word = set_word_[set];
      std::uint32_t node = 1;
      for (std::uint32_t level = 0; level < levels; ++level) {
        const std::uint32_t bit = (way >> (levels - 1 - level)) & 1u;
        if (bit) {
          word &= ~(std::uint64_t{1} << node);  // went right; point left
        } else {
          word |= std::uint64_t{1} << node;  // went left; point right
        }
        node = node * 2 + bit;
      }
      return;
    }
    case ReplacementKind::kNru: {
      // When every bit is set, a new epoch keeps only the current way.
      std::uint64_t& mask = set_word_[set];
      mask |= std::uint64_t{1} << way;
      if (mask == (std::uint64_t{1} << geom_.ways) - 1) {
        mask = std::uint64_t{1} << way;
      }
      return;
    }
    case ReplacementKind::kRandom:
      return;
  }
}

std::uint32_t TagArray::victim_side(std::uint64_t set) {
  switch (geom_.replacement) {
    case ReplacementKind::kLru: {
      const std::uint8_t* r = &rank_[set * geom_.ways];
      return static_cast<std::uint32_t>(std::max_element(r, r + geom_.ways) -
                                        r);
    }
    case ReplacementKind::kTreePlru: {
      const auto levels =
          static_cast<std::uint32_t>(std::countr_zero(geom_.ways));
      const std::uint64_t word = set_word_[set];
      std::uint32_t node = 1;
      std::uint32_t way = 0;
      for (std::uint32_t level = 0; level < levels; ++level) {
        const std::uint32_t bit = (word >> node) & 1u;
        way = (way << 1) | bit;
        node = node * 2 + bit;
      }
      return way;
    }
    case ReplacementKind::kNru: {
      // The lowest way with a clear bit.  touch keeps one clear unless the
      // set has a single way, whose victim is way 0 either way.
      const auto w =
          static_cast<std::uint32_t>(std::countr_one(set_word_[set]));
      return w < geom_.ways ? w : 0;
    }
    case ReplacementKind::kRandom:
      return static_cast<std::uint32_t>(rng_.below(geom_.ways));
  }
  return 0;
}

std::uint64_t TagArray::side_bytes() const {
  switch (geom_.replacement) {
    case ReplacementKind::kLru:
      return rank_.size();
    case ReplacementKind::kTreePlru:
    case ReplacementKind::kNru:
      return sets_ * sizeof(std::uint32_t);
    case ReplacementKind::kRandom:
      return 4 * sizeof(std::uint64_t);
  }
  return 0;
}

bool TagArray::side_valid(const std::uint8_t* in) const {
  switch (geom_.replacement) {
    case ReplacementKind::kLru:
      for (std::uint64_t s = 0; s < sets_; ++s) {
        std::bitset<256> seen;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
          const std::uint8_t rank = in[s * geom_.ways + w];
          if (rank >= geom_.ways || seen[rank]) return false;
          seen[rank] = true;
        }
      }
      return true;
    case ReplacementKind::kTreePlru:
    case ReplacementKind::kNru: {
      // Tree-PLRU uses node bits 1..ways-1.  NRU uses a bit per way but
      // never sets all of them in a set of two or more ways (touch starts a
      // new epoch first).  Both have at most 32 ways.
      const bool plru = geom_.replacement == ReplacementKind::kTreePlru;
      const std::uint64_t ways_mask = (std::uint64_t{1} << geom_.ways) - 1;
      const std::uint64_t allowed = plru ? ways_mask - 1 : ways_mask;
      for (std::uint64_t s = 0; s < sets_; ++s) {
        const std::uint64_t word = load_le32(in + 4 * s);
        if ((word & ~allowed) != 0) return false;
        if (!plru && geom_.ways > 1 && word == ways_mask) return false;
      }
      return true;
    }
    case ReplacementKind::kRandom:
      // All zeros is xoshiro256**'s one invalid state.
      return std::any_of(in, in + side_bytes(),
                         [](std::uint8_t b) { return b != 0; });
  }
  return false;
}

void TagArray::side_load(const std::uint8_t* in) {
  switch (geom_.replacement) {
    case ReplacementKind::kLru:
      std::memcpy(rank_.data(), in, rank_.size());
      return;
    case ReplacementKind::kTreePlru:
    case ReplacementKind::kNru:
      for (std::uint64_t s = 0; s < sets_; ++s) {
        set_word_[s] = load_le32(in + 4 * s);
      }
      return;
    case ReplacementKind::kRandom: {
      ByteReader r(in, side_bytes());
      r.get(rng_);
      return;
    }
  }
}

void TagArray::ckpt_save(ByteWriter& w) const {
  w.u64(entries_.size());
  std::uint8_t* out = w.extend(entries_.size() * sizeof(Entry));
  for (std::uint64_t s = 0; s < sets_; ++s) {
    const Entry* e = set_begin(s);
    std::uint8_t* set_out = out + s * geom_.ways * sizeof(Entry);
    if (embedded_lru_) {
      std::uint64_t word = set_word_[s];
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
  if (embedded_lru_) return;
  w.u64(side_bytes());
  switch (geom_.replacement) {
    case ReplacementKind::kLru:
      w.put(uncounted(rank_));
      return;
    case ReplacementKind::kTreePlru:
    case ReplacementKind::kNru:
      for (const std::uint64_t word : set_word_) {
        w.u32(static_cast<std::uint32_t>(word));
      }
      return;
    case ReplacementKind::kRandom:
      w.put(rng_);
      return;
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
  const std::uint8_t* side = nullptr;
  if (!embedded_lru_) {
    if (r.u64() != side_bytes()) return false;
    side = r.take(side_bytes());
    if (side == nullptr || !side_valid(side)) return false;
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
    if (embedded_lru_) set_word_[s] = word;
    rebuild_lane(s);
  }
  if (side != nullptr) side_load(side);
  valid_count_ = valid;
  return true;
}

std::vector<std::uint64_t> TagArray::ckpt_entries() const {
  ByteWriter w;
  ckpt_save(w);
  ByteReader r(w.buffer().data(), w.buffer().size());
  return r.read<std::vector<std::uint64_t>>();
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
