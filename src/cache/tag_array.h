// Set-associative tag array — the structural model of one cache level.
//
// The array tracks only presence (tags + valid bits + a per-line
// "prefetched" mark used by the prefetcher accounting); data contents are
// never modeled, matching the paper's methodology where memory is a perfect
// data store.  All timing and energy accounting lives in the simulator — the
// TagArray reports *events*, it does not price them.
//
// Storage is structure-of-arrays (SoA).  The authoritative state is the
// packed 64-bit entry per way (tag + flags) plus, for LRU with <= 16 ways,
// one 64-bit recency word per set holding the LRU order (see
// touch_recency).  Alongside the entries every way carries a 16-bit
// *partial tag* in a dense per-set lane.  A probe scans the lane four
// partial tags per 64-bit word with SWAR arithmetic (plain integer code, so
// every host and build runs the same instructions) and only touches the
// 8-byte entries of lanes whose partial tag matched.  The common
// deep-hierarchy *miss* (the exact case ReDHiP exists to skip in hardware)
// therefore costs two 8-byte lane words for an 8-way set instead of a
// 64-byte entry sweep.  The lane is derived state: every mutation that
// changes residency rewrites it, and checkpoint restore rebuilds it from the
// entries.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/geometry.h"
#include "common/bytestream.h"
#include "common/types.h"

namespace redhip {

class TagArray {
 public:
  struct LookupResult {
    bool hit = false;
    std::uint32_t way = 0;
    bool was_prefetched = false;  // set on the first demand hit to a
                                  // prefetched line (the mark is consumed)
  };

  struct FillResult {
    bool evicted = false;
    std::uint32_t way = 0;               // way the new line landed in
    LineAddr victim = 0;
    bool victim_was_prefetched = false;  // victim evicted with mark intact
                                         // (i.e. a useless prefetch)
    bool victim_was_dirty = false;       // eviction requires a writeback
  };

  // `seed` only matters for ReplacementKind::kRandom.
  explicit TagArray(const CacheGeometry& geom, std::uint64_t seed = 0);

  // The per-access methods below are defined inline (bottom of this header):
  // they are the simulator's hottest instructions — every simulated
  // reference runs several of them — and out-of-line calls plus the virtual
  // replacement-policy dispatch cost more than the tag match itself.  LRU
  // (the paper machine's policy) is dispatched non-virtually.

  // Probe for `line`; on a hit, promotes it in the replacement order and
  // consumes its prefetched mark.  `is_write` marks the line dirty.
  LookupResult lookup(LineAddr line, bool is_write = false);

  // Probe without any state change (used by the Oracle predictor and by
  // invariant checks).
  bool contains(LineAddr line) const;

  // Way index of the resident copy of `line` (no state change); false if
  // absent.  Lets the simulator keep per-slot sideband state (the LLC
  // core-presence directory) without widening the packed entries.
  bool find_way(LineAddr line, std::uint32_t* way) const;

  // Insert `line`; evicts a victim if the set is full.  `prefetched` marks
  // lines installed by the prefetcher rather than a demand access; `dirty`
  // installs the line already modified (write-allocate of a write miss, or
  // a dirty victim cascading down an exclusive hierarchy).
  // Pre-condition: the line is not already present (checked in debug).
  FillResult fill(LineAddr line, bool prefetched = false, bool dirty = false);

  // Fused `contains` + `fill` in a single set scan (the simulator's fill
  // paths previously did both walks back to back).  If the line is already
  // present: optionally dirties it (mark_dirty semantics — no replacement
  // promotion, no prefetched mark) and returns false.  Otherwise fills
  // exactly like fill() and returns true with the eviction outcome in
  // `*out`.
  bool fill_if_absent(LineAddr line, bool prefetched, bool dirty,
                      FillResult* out);

  // Remove `line` if present; returns true when it was.  `was_dirty`, if
  // non-null, reports whether the removed copy needed a writeback.
  bool invalidate(LineAddr line, bool* was_dirty = nullptr);

  // Hint that `line`'s set is about to be probed: pull its partial-tag lane
  // (what a miss touches) and entry words (what a hit touches) toward the
  // host caches.  Pure performance hint — no simulated state changes, so the
  // run loop's software pipeline may issue it speculatively without
  // changing any simulated number.
  void prefetch_line(LineAddr line) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint64_t set = line & set_mask_;
    __builtin_prefetch(&ptags_[set * lane_stride_], 0, 3);
    __builtin_prefetch(&entries_[set * geom_.ways], 0, 2);
#else
    (void)line;
#endif
  }

  // --- Geometry and introspection -----------------------------------------
  const CacheGeometry& geometry() const { return geom_; }
  std::uint64_t sets() const { return sets_; }
  std::uint32_t ways() const { return geom_.ways; }
  std::uint64_t set_of(LineAddr line) const { return line & set_mask_; }

  // Iterate the valid lines of one set (used by ReDHiP recalibration, which
  // reads the tag array set-by-set).  The templated form avoids the
  // std::function indirection on the recalibration path.
  template <typename Fn>
  void visit_valid_in_set(std::uint64_t set, Fn&& fn) const {
    const Entry* e = set_begin(set);
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (e[w] & kValidBit) fn(line_of(set, tag_of_entry(e[w])));
    }
  }
  void for_each_valid_in_set(std::uint64_t set,
                             const std::function<void(LineAddr)>& fn) const;
  // Iterate every valid line in the array.
  void for_each_valid(const std::function<void(LineAddr)>& fn) const;

  std::uint64_t valid_count() const { return valid_count_; }
  std::uint64_t valid_count_in_set(std::uint64_t set) const;

  // Whether the resident copy of `line` is dirty (false if absent).
  bool is_dirty(LineAddr line) const;
  // Mark a resident line dirty without touching the replacement order
  // (receiving a writeback is not a use).  Returns false if absent.
  bool mark_dirty(LineAddr line);

  // Whether the packed entries and recency words are the whole per-set
  // state (LRU with <= 16 ways, the paper machine's configuration).
  // Policies with side state (tree-PLRU, NRU, wide LRU's rank array, the
  // random policy's RNG) are not self-contained.  The partial-tag lanes are
  // derived from the entries, so they never need to be captured.
  bool state_is_self_contained() const { return embedded_lru_; }

  // Whole-array snapshot for checkpoint/restore, in the checkpoint format:
  // the entry count, then one packed entry per way (little-endian u64)
  // with the way's LRU rank (its position in the set's recency word, 0 =
  // MRU) in bits 60..63.  The live entries never carry the rank; it is
  // derived as each word is written straight into `w`.  The snapshot is
  // the complete state only when state_is_self_contained() (src/ckpt
  // refuses to checkpoint otherwise).
  void ckpt_save(ByteWriter& w) const;
  // Restore a ckpt_save() section from `r`, reading the words where they
  // lie.  The whole section is validated before the array changes, so it
  // fails closed — returns false and leaves the array untouched — on a
  // size mismatch, a short section, a set whose ranks are not exactly a
  // permutation of 0..ways-1 (embedded LRU), or any rank bit in an array
  // without embedded LRU.  Recounts the valid-line tally from the valid
  // bits rather than trusting the file, and rebuilds the recency words and
  // the derived partial-tag lanes.
  bool ckpt_load(ByteReader& r);
  // The same snapshot as a vector of ranked entries, and its inverse (true
  // only when `entries` is exactly one valid section): conveniences for
  // tests and the reference model that compare whole arrays.
  std::vector<std::uint64_t> ckpt_entries() const;
  bool ckpt_restore_entries(const std::vector<std::uint64_t>& entries);

 private:
  // One way, packed into a single word: bit 0 valid, bit 1 prefetched,
  // bit 2 dirty, bits 3..59 the tag.  Bits 60..63 are zero in the live
  // array; only the checkpoint format puts the LRU rank there.  A tag fits
  // 57 bits: with >= 64B lines that covers byte addresses past 2^63, so the
  // shift never overflows in practice.
  using Entry = std::uint64_t;
  static constexpr Entry kValidBit = 1;
  static constexpr Entry kPrefetchedBit = 2;
  static constexpr Entry kDirtyBit = 4;
  static constexpr std::uint32_t kRankShift = 60;
  static constexpr Entry kRankMask = Entry{0xF} << kRankShift;
  // Clearing the flag bits leaves `(tag << 3) | valid` — one mask + compare
  // decides "valid match" for the whole entry.
  static constexpr Entry kMatchMask = ~(kPrefetchedBit | kDirtyBit);

  // The dense per-way sideband: bit 15 is the valid bit (a lane word is
  // zero exactly when the way is invalid), bits 0..14 an xor-fold of the
  // full tag.  The fold covers every tag bit, so two tags that collide in
  // the lane are rare regardless of the access stride — and a collision
  // only costs one extra entry-word verify, never correctness.
  //
  // Each set's lane is padded to a multiple of four ways (lane_stride_) so
  // the scans read whole 64-bit words.  A pad lane holds kPadLane: nonzero,
  // so it never reads as invalid, and bit 15 clear, so it never equals a
  // valid partial tag.  No scan needs a tail mask.
  using PTag = std::uint16_t;
  static constexpr PTag kPTagValidBit = PTag{1} << 15;
  static constexpr PTag kPadLane = 1;
  static constexpr std::uint32_t kNoWay = ~0u;

  static PTag ptag_of(std::uint64_t tag) {
    const std::uint64_t h = tag ^ (tag >> 15) ^ (tag >> 30) ^ (tag >> 45);
    return static_cast<PTag>((h & 0x7FFF) | kPTagValidBit);
  }

  // Four lanes as one word, lane i in bits 16i..16i+15.  Assembled from the
  // lane values rather than type-punned, so the layout does not depend on
  // the host's byte order; compilers fuse it into a single 8-byte load.
  static std::uint64_t lane_word(const PTag* lane) {
    return std::uint64_t{lane[0]} | std::uint64_t{lane[1]} << 16 |
           std::uint64_t{lane[2]} << 32 | std::uint64_t{lane[3]} << 48;
  }
  // Exact zero test on equal-width fields of `x`; `low` has every bit of
  // each field set except its top one.  The result has a field's top bit
  // set exactly when that field of `x` is zero: adding `low` to a field's
  // low bits carries into its top bit iff they are nonzero and never
  // carries out of the field, so unlike the classic has-zero trick no field
  // is flagged by its neighbour's borrow.
  static std::uint64_t zero_fields(std::uint64_t x, std::uint64_t low) {
    return ~(((x & low) + low) | x) & ~low;
  }
  static constexpr std::uint64_t kLaneLow = 0x7FFF7FFF7FFF7FFF;
  static constexpr std::uint64_t kLaneOnes = 0x0001000100010001;
  static std::uint32_t lane_index(std::uint64_t z) {
    return static_cast<std::uint32_t>(std::countr_zero(z)) / 16;
  }

  // Way index of the valid resident copy of the line with partial tag
  // `pwant` and masked entry `want`, or kNoWay.  Each lane word yields its
  // candidate ways without a branch per way; each candidate is verified
  // against its packed entry in way order.  Tags are unique within a set
  // (fills check absence first), so at most one candidate verifies and the
  // result is the lowest-way match.  A definite miss (no lane match) never
  // touches the entries at all.
  std::uint32_t match_way(const Entry* e, const PTag* lane, Entry want,
                          PTag pwant) const {
    const std::uint64_t bwant = kLaneOnes * pwant;
    for (std::uint32_t base = 0; base < geom_.ways; base += 4) {
      for (std::uint64_t m = zero_fields(lane_word(lane + base) ^ bwant, kLaneLow);
           m != 0; m &= m - 1) {
        const std::uint32_t w = base + lane_index(m);
        if ((e[w] & kMatchMask) == want) return w;
      }
    }
    return kNoWay;
  }

  // First invalid way of the set (lane word zero <=> way invalid), or
  // kNoWay when the set is full.
  std::uint32_t first_invalid_way(const PTag* lane) const {
    for (std::uint32_t base = 0; base < geom_.ways; base += 4) {
      const std::uint64_t z = zero_fields(lane_word(lane + base), kLaneLow);
      if (z != 0) return base + lane_index(z);
    }
    return kNoWay;
  }

  // Fused resident-probe + first-invalid-way in one set scan (the fill
  // paths need both).  Returns the resident way (in which case `*inv` is
  // meaningless — the caller never fills) or kNoWay with `*inv` the first
  // invalid way / kNoWay.  Same way-order semantics as calling match_way
  // then first_invalid_way.
  std::uint32_t probe_or_invalid(const Entry* e, const PTag* lane,
                                 Entry want, PTag pwant,
                                 std::uint32_t* inv) const {
    const std::uint64_t bwant = kLaneOnes * pwant;
    std::uint32_t inv_w = kNoWay;
    for (std::uint32_t base = 0; base < geom_.ways; base += 4) {
      const std::uint64_t x = lane_word(lane + base);
      for (std::uint64_t m = zero_fields(x ^ bwant, kLaneLow); m != 0;
           m &= m - 1) {
        const std::uint32_t w = base + lane_index(m);
        if ((e[w] & kMatchMask) == want) return w;
      }
      const std::uint64_t z = zero_fields(x, kLaneLow);
      if (inv_w == kNoWay && z != 0) inv_w = base + lane_index(z);
    }
    *inv = inv_w;
    return kNoWay;
  }

  static Entry pack(std::uint64_t tag, bool prefetched, bool dirty) {
    return (tag << 3) | (prefetched ? kPrefetchedBit : 0) |
           (dirty ? kDirtyBit : 0) | kValidBit;
  }
  static std::uint64_t tag_of_entry(Entry e) { return (e & kMatchMask) >> 3; }

  std::uint64_t tag_of(LineAddr line) const { return line >> set_bits_; }
  LineAddr line_of(std::uint64_t set, std::uint64_t tag) const {
    return (tag << set_bits_) | set;
  }
  Entry* set_begin(std::uint64_t set) { return &entries_[set * geom_.ways]; }
  const Entry* set_begin(std::uint64_t set) const {
    return &entries_[set * geom_.ways];
  }
  PTag* lane_begin(std::uint64_t set) { return &ptags_[set * lane_stride_]; }
  const PTag* lane_begin(std::uint64_t set) const {
    return &ptags_[set * lane_stride_];
  }

  // Recompute one set's partial-tag lane from its entries (the restore
  // paths' half of the lane-mirrors-entries invariant).  Pad lanes are
  // never written after construction.
  void rebuild_lane(std::uint64_t set) {
    const Entry* e = set_begin(set);
    PTag* lane = lane_begin(set);
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      lane[w] =
          (e[w] & kValidBit) ? ptag_of(tag_of_entry(e[w])) : PTag{0};
    }
  }

  // Embedded LRU: the set's recency word lists its ways from MRU (nibble 0)
  // to LRU (nibble ways-1); nibbles past ways-1 stay zero.  A way's nibble
  // position is exactly the rank LruPolicy would keep for it — same
  // promotions, same way-index initial order, same victim — so the
  // permutation evolves identically; only the storage is inverted (position
  // -> way instead of way -> rank).  Invalidation leaves the word alone:
  // LruPolicy never learns about invalidations either.
  //
  // Promote `way` to MRU: find its position p with the exact zero test on
  // nibbles, shift nibbles 0..p-1 up one position and put the way in
  // nibble 0.  Dead nibbles are zero too, so for way 0 they also match, but
  // they sit above every live position and the lowest match is the real
  // one.
  void touch_recency(std::uint64_t set, std::uint32_t way) {
    std::uint64_t& word = recency_[set];
    const std::uint64_t z = zero_fields(
        word ^ (std::uint64_t{0x1111111111111111} * way), 0x7777777777777777);
    const int shift = std::countr_zero(z) - 3;  // 4 * p
    if (shift == 0) return;  // re-touching the MRU way is a no-op
    const std::uint64_t above = word & (~std::uint64_t{0} << shift << 4);
    const std::uint64_t below = word & ((std::uint64_t{1} << shift) - 1);
    word = above | below << 4 | way;
  }
  std::uint32_t victim_recency(std::uint64_t set) const {
    return static_cast<std::uint32_t>(recency_[set] >> victim_shift_) & 0xF;
  }
  // Promote the way a fill just evicted: the victim sat in the LRU nibble,
  // so the promote is a plain shift that drops it off the live end.
  void touch_evicted_recency(std::uint64_t set, std::uint32_t way) {
    recency_[set] = ((recency_[set] << 4) | way) & live_mask_;
  }

  // Promote (set, way) in the replacement order.  The paper machine is LRU
  // at every level, so the recency-word path is the common case; wide LRU
  // (> 16 ways) still uses LruPolicy's side array non-virtually, everything
  // else pays the virtual dispatch.
  void repl_touch(std::uint64_t set, std::uint32_t way) {
    if (embedded_lru_) {
      touch_recency(set, way);
    } else if (lru_ != nullptr) {
      lru_->touch_inline(set, way);
    } else {
      repl_->touch(set, way);
    }
  }
  std::uint32_t repl_victim(std::uint64_t set) {
    if (embedded_lru_) return victim_recency(set);
    if (lru_ != nullptr) return lru_->victim_inline(set);
    return repl_->victim(set);
  }
  // Promote a way repl_victim just returned (see touch_evicted_recency);
  // identical promotion to repl_touch, cheaper on the embedded path.
  void repl_touch_evicted(std::uint64_t set, std::uint32_t way) {
    if (embedded_lru_) {
      touch_evicted_recency(set, way);
    } else if (lru_ != nullptr) {
      lru_->touch_inline(set, way);
    } else {
      repl_->touch(set, way);
    }
  }

  CacheGeometry geom_;
  std::uint64_t sets_;
  std::uint32_t set_bits_;
  std::uint64_t set_mask_;
  std::uint32_t lane_stride_;  // ways rounded up to a multiple of 4
  std::vector<Entry> entries_;
  std::vector<PTag> ptags_;  // derived partial-tag lanes, see rebuild_lane()
  std::unique_ptr<ReplacementPolicy> repl_;
  LruPolicy* lru_ = nullptr;  // repl_ downcast when the policy is LRU
  bool embedded_lru_ = false;  // LRU with <= 16 ways: recency_ holds the order
  std::vector<std::uint64_t> recency_;  // one word per set when embedded_lru_
  std::uint64_t live_mask_ = 0;         // nibbles 0..ways-1
  std::uint32_t victim_shift_ = 0;      // 4 * (ways - 1)
  std::uint64_t valid_count_ = 0;
};

// --------------------------------------------------------------------------
// Inline hot path.
// --------------------------------------------------------------------------

inline TagArray::LookupResult TagArray::lookup(LineAddr line, bool is_write) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, lane_begin(set), want, ptag_of(tag));
  if (w == kNoWay) return {};
  LookupResult r{true, w, (e[w] & kPrefetchedBit) != 0};
  e[w] &= ~kPrefetchedBit;
  if (is_write) e[w] |= kDirtyBit;
  repl_touch(set, w);
  return r;
}

inline bool TagArray::contains(LineAddr line) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  return match_way(set_begin(set), lane_begin(set), want, ptag_of(tag)) !=
         kNoWay;
}

inline bool TagArray::find_way(LineAddr line, std::uint32_t* way) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const std::uint32_t w =
      match_way(set_begin(set), lane_begin(set), want, ptag_of(tag));
  if (w == kNoWay) return false;
  *way = w;
  return true;
}

inline TagArray::FillResult TagArray::fill(LineAddr line, bool prefetched,
                                           bool dirty) {
  REDHIP_DCHECK(!contains(line));
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  Entry* e = set_begin(set);
  PTag* lane = lane_begin(set);
  // Prefer an invalid way (known from the lane alone).  Replacement state
  // belongs to the way, not to the line occupying it, so an overwrite only
  // promotes the way.
  const std::uint32_t inv = first_invalid_way(lane);
  FillResult r;
  std::uint32_t w;
  if (inv != kNoWay) {
    w = inv;
    ++valid_count_;
    r.way = w;
    e[w] = pack(tag, prefetched, dirty);
    lane[w] = ptag_of(tag);
    repl_touch(set, w);
  } else {
    w = repl_victim(set);
    r.evicted = true;
    r.victim = line_of(set, tag_of_entry(e[w]));
    r.victim_was_prefetched = (e[w] & kPrefetchedBit) != 0;
    r.victim_was_dirty = (e[w] & kDirtyBit) != 0;
    r.way = w;
    e[w] = pack(tag, prefetched, dirty);
    lane[w] = ptag_of(tag);
    repl_touch_evicted(set, w);
  }
  return r;
}

inline bool TagArray::fill_if_absent(LineAddr line, bool prefetched,
                                     bool dirty, FillResult* out) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const PTag pwant = ptag_of(tag);
  Entry* e = set_begin(set);
  PTag* lane = lane_begin(set);
  std::uint32_t inv = kNoWay;
  const std::uint32_t resident = probe_or_invalid(e, lane, want, pwant, &inv);
  if (resident != kNoWay) {
    // Already present: receiving a duplicate fill is not a use, so the
    // replacement order is untouched (mark_dirty semantics).
    if (dirty) e[resident] |= kDirtyBit;
    return false;
  }
  std::uint32_t w;
  if (inv != kNoWay) {
    w = inv;
    ++valid_count_;
    *out = {};
    out->way = w;
    e[w] = pack(tag, prefetched, dirty);
    lane[w] = pwant;
    repl_touch(set, w);
  } else {
    w = repl_victim(set);
    out->evicted = true;
    out->way = w;
    out->victim = line_of(set, tag_of_entry(e[w]));
    out->victim_was_prefetched = (e[w] & kPrefetchedBit) != 0;
    out->victim_was_dirty = (e[w] & kDirtyBit) != 0;
    e[w] = pack(tag, prefetched, dirty);
    lane[w] = pwant;
    repl_touch_evicted(set, w);
  }
  return true;
}

inline bool TagArray::invalidate(LineAddr line, bool* was_dirty) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  PTag* lane = lane_begin(set);
  const std::uint32_t w = match_way(e, lane, want, ptag_of(tag));
  if (w == kNoWay) return false;
  if (was_dirty != nullptr) *was_dirty = (e[w] & kDirtyBit) != 0;
  // The way keeps its place in the LRU order: LruPolicy never learns about
  // invalidations either.
  e[w] = 0;
  lane[w] = 0;
  --valid_count_;
  return true;
}

inline bool TagArray::mark_dirty(LineAddr line) {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, lane_begin(set), want, ptag_of(tag));
  if (w == kNoWay) return false;
  e[w] |= kDirtyBit;
  return true;
}

inline bool TagArray::is_dirty(LineAddr line) const {
  const std::uint64_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  const Entry want = (tag << 3) | kValidBit;
  const Entry* e = set_begin(set);
  const std::uint32_t w = match_way(e, lane_begin(set), want, ptag_of(tag));
  return w != kNoWay && (e[w] & kDirtyBit) != 0;
}

}  // namespace redhip
