// Set-associative tag array — the structural model of one cache level.
//
// The array tracks only presence (tags + valid bits + a per-line
// "prefetched" mark used by the prefetcher accounting); data contents are
// never modeled, matching the paper's methodology where memory is a perfect
// data store.  All timing and energy accounting lives in the simulator — the
// TagArray reports *events*, it does not price them.
//
// Storage is structure-of-arrays (SoA).  The authoritative state is the
// packed 64-bit entry per way (tag + flags + embedded LRU rank, see below);
// alongside it every way carries a 16-bit *partial tag* in a dense per-set
// lane.  A probe first scans the lane — 16 bytes for an 8-way set, one host
// cache line for anything up to 32 ways — and only touches the 8-byte
// entries of lanes whose partial tag matched.  The common deep-hierarchy
// *miss* (the exact case ReDHiP exists to skip in hardware) therefore costs
// one dense 16-byte load instead of a 64-byte entry sweep, and the AVX-512
// path compares a whole set in a single 16-bit-lane vector op.  The lane is
// derived state: every mutation that changes residency rewrites it, and
// checkpoint restore rebuilds it from the entries.
#pragma once

#include <cstdint>
#include <bit>
#include <functional>
#include <optional>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "cache/geometry.h"
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
  // fast engine's software pipeline may issue it speculatively without
  // affecting bit-identity with the reference engine.
  void prefetch_line(LineAddr line) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint64_t i = (line & set_mask_) * geom_.ways;
    __builtin_prefetch(&ptags_[i], 0, 3);
    __builtin_prefetch(&entries_[i], 0, 2);
#else
    (void)line;
#endif
  }

  // --- Geometry and introspection -----------------------------------------
  const CacheGeometry& geometry() const { return geom_; }
  std::uint64_t sets() const { return sets_; }
  std::uint32_t ways() const { return geom_.ways; }
  std::uint64_t set_of(LineAddr line) const { return line & set_mask_; }
  std::uint64_t bank_of(std::uint64_t set) const { return set & bank_mask_; }

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

  // Whether every piece of per-set state lives inside the packed entries
  // (LRU with <= 16 ways, the paper machine's configuration).  Policies with
  // side state (tree-PLRU, NRU, the random policy's RNG) are not
  // self-contained.  The partial-tag lane is derived from the entries, so it
  // never needs to be captured.
  bool state_is_self_contained() const { return embedded_lru_; }

  // Whole-array snapshot for checkpoint/restore: the packed entries are the
  // *complete* state only when state_is_self_contained() (src/ckpt refuses
  // to checkpoint otherwise).  Restore recounts the valid-line tally from
  // the valid bits rather than trusting the caller, and rebuilds the derived
  // partial-tag lanes.
  const std::vector<std::uint64_t>& ckpt_entries() const { return entries_; }
  bool ckpt_restore_entries(const std::vector<std::uint64_t>& entries) {
    if (entries.size() != entries_.size()) return false;
    entries_ = entries;
    valid_count_ = 0;
    for (std::uint64_t e : entries_) valid_count_ += e & kValidBit;
    for (std::uint64_t s = 0; s < sets_; ++s) rebuild_lane(s);
    return true;
  }

 private:
  // One way, packed into a single word: bit 0 valid, bit 1 prefetched,
  // bit 2 dirty, bits 3..59 the tag, bits 60..63 the line's LRU rank (only
  // used when the policy is LRU with <= 16 ways — see `embedded_lru_`).  A
  // tag fits 57 bits: with >= 64B lines that covers byte addresses past
  // 2^63, so the shift never overflows in practice.
  using Entry = std::uint64_t;
  static constexpr Entry kValidBit = 1;
  static constexpr Entry kPrefetchedBit = 2;
  static constexpr Entry kDirtyBit = 4;
  static constexpr std::uint32_t kRankShift = 60;
  static constexpr Entry kRankMask = Entry{0xF} << kRankShift;
  static constexpr Entry kRankInc = Entry{1} << kRankShift;
  // Clearing the don't-care bits (flags + rank) leaves `(tag << 3) | valid`
  // — one mask + compare decides "valid match" for the whole entry.  For
  // policies that keep their state outside the entry the rank nibble is
  // always zero, so the same mask is correct everywhere.
  static constexpr Entry kMatchMask =
      ~(kPrefetchedBit | kDirtyBit | kRankMask);

  // The dense per-way sideband: bit 15 is the valid bit (a lane word is
  // zero exactly when the way is invalid), bits 0..14 an xor-fold of the
  // full tag.  The fold covers every tag bit, so two tags that collide in
  // the lane are rare regardless of the access stride — and a collision
  // only costs one extra entry-word verify, never correctness.
  using PTag = std::uint16_t;
  static constexpr PTag kPTagValidBit = PTag{1} << 15;
  static constexpr std::uint32_t kNoWay = ~0u;

  static PTag ptag_of(std::uint64_t tag) {
    const std::uint64_t h = tag ^ (tag >> 15) ^ (tag >> 30) ^ (tag >> 45);
    return static_cast<PTag>((h & 0x7FFF) | kPTagValidBit);
  }

#if defined(__AVX512F__) && defined(__AVX512BW__)
  // Bitmask (lane i -> bit i) of the n <= 64 lane words equal to `pwant`:
  // a 32-way block is one masked 16-bit-lane compare.
  static std::uint64_t lane_eq_mask(const PTag* lane, std::uint32_t n,
                                    PTag pwant) {
    std::uint64_t bits = 0;
    const __m512i vwant = _mm512_set1_epi16(static_cast<short>(pwant));
    for (std::uint32_t base = 0; base < n; base += 32) {
      const std::uint32_t k = n - base;
      const __mmask32 lanes = k >= 32 ? static_cast<__mmask32>(~0u)
                                      : static_cast<__mmask32>((1u << k) - 1);
      const __m512i v = _mm512_maskz_loadu_epi16(lanes, lane + base);
      bits |= static_cast<std::uint64_t>(
                  _mm512_mask_cmpeq_epi16_mask(lanes, v, vwant))
              << base;
    }
    return bits;
  }
#endif

  // Way index of the valid resident copy of the line with partial tag
  // `pwant` and masked entry `want`, or kNoWay.  The lane scan yields
  // candidate ways; each candidate is verified against its packed entry in
  // way order.  Tags are unique within a set (fills check absence first),
  // so at most one candidate verifies and the result equals the old
  // full-entry scan's lowest-way match.  A definite miss (no lane match)
  // never touches the entries at all.  The portable fallback keeps the old
  // sweep's early exit — the common hit leaves after MRU-ish few ways — but
  // compares 2-byte lane words and only dereferences an entry on a lane
  // match.
  std::uint32_t match_way(const Entry* e, const PTag* lane, Entry want,
                          PTag pwant) const {
#if defined(__AVX512F__) && defined(__AVX512BW__)
    for (std::uint32_t base = 0; base < geom_.ways; base += 64) {
      const std::uint32_t n =
          geom_.ways - base >= 64 ? 64 : geom_.ways - base;
      std::uint64_t m = lane_eq_mask(lane + base, n, pwant);
      while (m != 0) {
        const std::uint32_t w =
            base + static_cast<std::uint32_t>(std::countr_zero(m));
        if ((e[w] & kMatchMask) == want) return w;
        m &= m - 1;
      }
    }
#else
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (lane[w] == pwant && (e[w] & kMatchMask) == want) return w;
    }
#endif
    return kNoWay;
  }

  // First invalid way of the set (lane word zero <=> way invalid), or
  // kNoWay when the set is full.  Reproduces the old entry sweep's
  // first-invalid-way choice from the lane alone.
  std::uint32_t first_invalid_way(const PTag* lane) const {
#if defined(__AVX512F__) && defined(__AVX512BW__)
    for (std::uint32_t base = 0; base < geom_.ways; base += 64) {
      const std::uint32_t n =
          geom_.ways - base >= 64 ? 64 : geom_.ways - base;
      const std::uint64_t m = lane_eq_mask(lane + base, n, PTag{0});
      if (m != 0) {
        return base + static_cast<std::uint32_t>(std::countr_zero(m));
      }
    }
#else
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (lane[w] == 0) return w;
    }
#endif
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
    std::uint32_t inv_w = kNoWay;
#if defined(__AVX512F__) && defined(__AVX512BW__)
    for (std::uint32_t base = 0; base < geom_.ways; base += 64) {
      const std::uint32_t n =
          geom_.ways - base >= 64 ? 64 : geom_.ways - base;
      std::uint64_t m = lane_eq_mask(lane + base, n, pwant);
      while (m != 0) {
        const std::uint32_t w =
            base + static_cast<std::uint32_t>(std::countr_zero(m));
        if ((e[w] & kMatchMask) == want) return w;
        m &= m - 1;
      }
      if (inv_w == kNoWay) {
        const std::uint64_t z = lane_eq_mask(lane + base, n, PTag{0});
        if (z != 0) {
          inv_w = base + static_cast<std::uint32_t>(std::countr_zero(z));
        }
      }
    }
#else
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (lane[w] == pwant && (e[w] & kMatchMask) == want) return w;
      if (inv_w == kNoWay && lane[w] == 0) inv_w = w;
    }
#endif
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
  PTag* lane_begin(std::uint64_t set) { return &ptags_[set * geom_.ways]; }
  const PTag* lane_begin(std::uint64_t set) const {
    return &ptags_[set * geom_.ways];
  }

  // Recompute one set's partial-tag lane from its entries (the restore
  // paths' half of the lane-mirrors-entries invariant).
  void rebuild_lane(std::uint64_t set) {
    const Entry* e = set_begin(set);
    PTag* lane = lane_begin(set);
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      lane[w] =
          (e[w] & kValidBit) ? ptag_of(tag_of_entry(e[w])) : PTag{0};
    }
  }

  // Entry-embedded LRU: ranks live in the top nibble of the entries the
  // caller has already loaded.  Behaviour is exactly LruPolicy's
  // touch_inline/victim_inline (same promotions, same first-max tie-break,
  // same way-index initial ranks); only the storage moved.
  void touch_embedded(Entry* e, std::uint32_t way) {
    const Entry old = e[way] & kRankMask;
    if (old == 0) return;
#if defined(__AVX512F__)
    // Branchless promote: increment every rank below `old` in one masked
    // add per 8 ways.  Same additions as the scalar loop, so the rank
    // permutation evolves identically.
    const __m512i vrank = _mm512_set1_epi64(static_cast<long long>(kRankMask));
    const __m512i vold = _mm512_set1_epi64(static_cast<long long>(old));
    const __m512i vinc = _mm512_set1_epi64(static_cast<long long>(kRankInc));
    for (std::uint32_t base = 0; base < geom_.ways; base += 8) {
      const std::uint32_t n = geom_.ways - base;
      const __mmask8 lanes =
          n >= 8 ? static_cast<__mmask8>(0xFF)
                 : static_cast<__mmask8>((1u << n) - 1);
      const __m512i v = _mm512_maskz_loadu_epi64(lanes, e + base);
      const __mmask8 lt = _mm512_mask_cmplt_epu64_mask(
          lanes, _mm512_and_si512(v, vrank), vold);
      _mm512_mask_storeu_epi64(e + base, lt,
                               _mm512_add_epi64(v, vinc));
    }
#else
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if ((e[w] & kRankMask) < old) e[w] += kRankInc;
    }
#endif
    e[way] &= ~kRankMask;
  }
  std::uint32_t victim_embedded(const Entry* e) const {
    // The ranks of a set are a permutation of 0..ways-1 (initialized that
    // way; touch_embedded preserves it, invalidate keeps the nibble), so
    // the LRU victim is exactly the way whose rank equals ways-1 — a
    // compare-equal scan, and being unique it trivially matches the scalar
    // first-max tie-break.
    const Entry max_r = Entry{geom_.ways - 1} << kRankShift;
#if defined(__AVX512F__)
    const __m512i vrank = _mm512_set1_epi64(static_cast<long long>(kRankMask));
    const __m512i vmax = _mm512_set1_epi64(static_cast<long long>(max_r));
    for (std::uint32_t base = 0; base < geom_.ways; base += 8) {
      const std::uint32_t n = geom_.ways - base;
      const __mmask8 lanes =
          n >= 8 ? static_cast<__mmask8>(0xFF)
                 : static_cast<__mmask8>((1u << n) - 1);
      const __mmask8 eq = _mm512_mask_cmpeq_epu64_mask(
          lanes,
          _mm512_and_si512(_mm512_maskz_loadu_epi64(lanes, e + base), vrank),
          vmax);
      if (eq != 0) return base + static_cast<std::uint32_t>(__builtin_ctz(eq));
    }
    return 0;  // unreachable while the permutation invariant holds
#else
    for (std::uint32_t w = 0;; ++w) {
      if ((e[w] & kRankMask) == max_r || w + 1 == geom_.ways) return w;
    }
#endif
  }

  // Promote the way a fill just evicted into: the victim held the maximum
  // rank, so every other way's rank is strictly below it and the promote
  // degenerates to an unconditional increment of the others (no compare).
  void touch_evicted_embedded(Entry* e, std::uint32_t way) {
#if defined(__AVX512F__)
    const __m512i vinc = _mm512_set1_epi64(static_cast<long long>(kRankInc));
    for (std::uint32_t base = 0; base < geom_.ways; base += 8) {
      const std::uint32_t n = geom_.ways - base;
      std::uint32_t lanes = n >= 8 ? 0xFFu : (1u << n) - 1;
      if (way - base < 8) lanes &= ~(1u << (way - base));
      const __mmask8 m = static_cast<__mmask8>(lanes);
      _mm512_mask_storeu_epi64(
          e + base, m,
          _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, e + base), vinc));
    }
#else
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
      if (w != way) e[w] += kRankInc;
    }
#endif
    e[way] &= ~kRankMask;
  }

  // Promote (set, way) in the replacement order.  The paper machine is LRU
  // at every level, so the embedded-rank path is the common case; wide-LRU
  // (> 16 ways) still uses LruPolicy's side array non-virtually, everything
  // else pays the virtual dispatch.
  void repl_touch(Entry* e, std::uint64_t set, std::uint32_t way) {
    if (embedded_lru_) {
      touch_embedded(e, way);
    } else if (lru_ != nullptr) {
      lru_->touch_inline(set, way);
    } else {
      repl_->touch(set, way);
    }
  }
  std::uint32_t repl_victim(const Entry* e, std::uint64_t set) {
    if (embedded_lru_) return victim_embedded(e);
    if (lru_ != nullptr) return lru_->victim_inline(set);
    return repl_->victim(set);
  }
  // Promote a way repl_victim just returned (see touch_evicted_embedded);
  // identical promotion to repl_touch, cheaper on the embedded path.
  void repl_touch_evicted(Entry* e, std::uint64_t set, std::uint32_t way) {
    if (embedded_lru_) {
      touch_evicted_embedded(e, way);
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
  std::uint64_t bank_mask_;
  std::vector<Entry> entries_;
  std::vector<PTag> ptags_;  // derived partial-tag lanes, see rebuild_lane()
  std::unique_ptr<ReplacementPolicy> repl_;
  LruPolicy* lru_ = nullptr;  // repl_ downcast when the policy is LRU
  bool embedded_lru_ = false;  // LRU with <= 16 ways: ranks in the entries
  std::uint64_t valid_count_ = 0;
};

// --------------------------------------------------------------------------
// Inline hot path.  Identical behaviour to the original out-of-line
// definitions — only the call overhead and the entry padding are gone.
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
  repl_touch(e, set, w);
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
  // Prefer an invalid way (known from the lane alone).  Overwrites keep the
  // rank nibble — replacement state belongs to the way, not to the line
  // occupying it.
  const std::uint32_t inv = first_invalid_way(lane);
  FillResult r;
  std::uint32_t w;
  if (inv != kNoWay) {
    w = inv;
    ++valid_count_;
    r.way = w;
    e[w] = (e[w] & kRankMask) | pack(tag, prefetched, dirty);
    lane[w] = ptag_of(tag);
    repl_touch(e, set, w);
  } else {
    w = repl_victim(e, set);
    r.evicted = true;
    r.victim = line_of(set, tag_of_entry(e[w]));
    r.victim_was_prefetched = (e[w] & kPrefetchedBit) != 0;
    r.victim_was_dirty = (e[w] & kDirtyBit) != 0;
    r.way = w;
    e[w] = (e[w] & kRankMask) | pack(tag, prefetched, dirty);
    lane[w] = ptag_of(tag);
    repl_touch_evicted(e, set, w);
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
    e[w] = (e[w] & kRankMask) | pack(tag, prefetched, dirty);
    lane[w] = pwant;
    repl_touch(e, set, w);
  } else {
    w = repl_victim(e, set);
    out->evicted = true;
    out->way = w;
    out->victim = line_of(set, tag_of_entry(e[w]));
    out->victim_was_prefetched = (e[w] & kPrefetchedBit) != 0;
    out->victim_was_dirty = (e[w] & kDirtyBit) != 0;
    e[w] = (e[w] & kRankMask) | pack(tag, prefetched, dirty);
    lane[w] = pwant;
    repl_touch_evicted(e, set, w);
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
  // Clear everything but the rank nibble: LruPolicy never learns about
  // invalidations either, so the way keeps its place in the LRU order.
  e[w] &= kRankMask;
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
