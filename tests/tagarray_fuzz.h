// Randomized equivalence harness for the SoA TagArray: drive a TagArray and
// an independent shadow model (plain per-way structs + explicit per-way LRU
// ranks, no partial-tag lane, no recency word) through the same operation
// stream and require identical observable behaviour at every step.
//
// The shadow replicates the documented replacement contract exactly —
// way-index initial ranks, promote-on-use, first-invalid-way fills,
// first-max victim, rank survives invalidation — so any divergence is a
// TagArray bug, not a modeling choice.  The periodic cross-check also
// compares ckpt_entries() against the shadow's entries in the checkpoint
// format (tag + flags + rank nibble), which pins the recency-word -> rank
// conversion.  The geometries include way counts that are not a multiple
// of four, so the SWAR scans run over pad lanes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/tag_array.h"
#include "common/rng.h"

namespace redhip {
namespace fuzz {

struct ShadowWay {
  bool valid = false;
  bool prefetched = false;
  bool dirty = false;
  std::uint64_t tag = 0;
};

// Plain-vector mirror of one TagArray with LRU replacement.
class ShadowArray {
 public:
  explicit ShadowArray(const CacheGeometry& g)
      : sets_(g.sets()),
        ways_(g.ways),
        set_bits_(g.set_bits()),
        ways_state_(sets_ * ways_),
        rank_(sets_ * ways_) {
    for (std::uint64_t s = 0; s < sets_; ++s) {
      for (std::uint32_t w = 0; w < ways_; ++w) rank_[s * ways_ + w] = w;
    }
  }

  std::uint64_t set_of(LineAddr line) const { return line & (sets_ - 1); }
  std::uint64_t tag_of(LineAddr line) const { return line >> set_bits_; }
  LineAddr line_of(std::uint64_t set, std::uint64_t tag) const {
    return (tag << set_bits_) | set;
  }

  ShadowWay* way(std::uint64_t set, std::uint32_t w) {
    return &ways_state_[set * ways_ + w];
  }

  std::uint32_t find(LineAddr line) const {
    const std::uint64_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const ShadowWay& sw = ways_state_[set * ways_ + w];
      if (sw.valid && sw.tag == tag) return w;
    }
    return ~0u;
  }

  void touch(std::uint64_t set, std::uint32_t way) {
    std::uint32_t* r = &rank_[set * ways_];
    const std::uint32_t old = r[way];
    if (old == 0) return;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (r[w] < old) ++r[w];
    }
    r[way] = 0;
  }

  std::uint32_t victim(std::uint64_t set) const {
    const std::uint32_t* r = &rank_[set * ways_];
    std::uint32_t worst = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (r[w] > r[worst]) worst = w;
    }
    return worst;
  }

  TagArray::LookupResult lookup(LineAddr line, bool is_write) {
    const std::uint32_t w = find(line);
    if (w == ~0u) return {};
    const std::uint64_t set = set_of(line);
    ShadowWay* sw = way(set, w);
    TagArray::LookupResult r{true, w, sw->prefetched};
    sw->prefetched = false;
    if (is_write) sw->dirty = true;
    touch(set, w);
    return r;
  }

  bool fill_if_absent(LineAddr line, bool prefetched, bool dirty,
                      TagArray::FillResult* out) {
    const std::uint32_t resident = find(line);
    const std::uint64_t set = set_of(line);
    if (resident != ~0u) {
      if (dirty) way(set, resident)->dirty = true;
      return false;
    }
    std::uint32_t w = ~0u;
    for (std::uint32_t i = 0; i < ways_; ++i) {
      if (!way(set, i)->valid) {
        w = i;
        break;
      }
    }
    *out = {};
    if (w == ~0u) {
      w = victim(set);
      ShadowWay* v = way(set, w);
      out->evicted = true;
      out->victim = line_of(set, v->tag);
      out->victim_was_prefetched = v->prefetched;
      out->victim_was_dirty = v->dirty;
    } else {
      ++valid_count_;
    }
    out->way = w;
    *way(set, w) = {true, prefetched, dirty, tag_of(line)};
    touch(set, w);
    return true;
  }

  bool invalidate(LineAddr line, bool* was_dirty) {
    const std::uint32_t w = find(line);
    if (w == ~0u) return false;
    const std::uint64_t set = set_of(line);
    if (was_dirty != nullptr) *was_dirty = way(set, w)->dirty;
    way(set, w)->valid = false;
    --valid_count_;
    return true;
  }

  bool mark_dirty(LineAddr line) {
    const std::uint32_t w = find(line);
    if (w == ~0u) return false;
    way(set_of(line), w)->dirty = true;
    return true;
  }

  bool is_dirty(LineAddr line) const {
    const std::uint32_t w = find(line);
    if (w == ~0u) return false;
    return ways_state_[set_of(line) * ways_ + w].dirty;
  }

  std::uint64_t valid_count() const { return valid_count_; }

  // What TagArray::ckpt_entries() must hold for (set, w): the packed entry
  // (zero when invalid) with the way's LRU rank in bits 60..63.  Arrays
  // without embedded LRU (> 16 ways) carry no rank.
  std::uint64_t ckpt_entry(std::uint64_t set, std::uint32_t w) const {
    const ShadowWay& sw = ways_state_[set * ways_ + w];
    std::uint64_t e = 0;
    if (sw.valid) {
      e = sw.tag << 3 | std::uint64_t{sw.prefetched} << 1 |
          std::uint64_t{sw.dirty} << 2 | 1;
    }
    if (ways_ <= 16) e |= std::uint64_t{rank_[set * ways_ + w]} << 60;
    return e;
  }

  // Way-ordered valid lines of one set, matching visit_valid_in_set.
  std::vector<LineAddr> valid_lines(std::uint64_t set) const {
    std::vector<LineAddr> out;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const ShadowWay& sw = ways_state_[set * ways_ + w];
      if (sw.valid) out.push_back(line_of(set, sw.tag));
    }
    return out;
  }

 private:
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t set_bits_;
  std::vector<ShadowWay> ways_state_;
  std::vector<std::uint32_t> rank_;
  std::uint64_t valid_count_ = 0;
};

// Random line with deliberately low tag entropy (plus occasional high bits
// so the 15-bit partial-tag fold sees the whole 57-bit tag range and
// collides with the dense tags it aliases).
inline LineAddr random_line(Xoshiro256& rng, const CacheGeometry& g) {
  const std::uint64_t set = rng.below(g.sets());
  std::uint64_t tag = rng.below(3 * g.ways);
  if (rng.below(8) == 0) tag |= rng.below(1u << 12) << 40;
  return (tag << g.set_bits()) | set;
}

// Drive `ops` random operations through both implementations, checking
// every return value; every 256 ops cross-check the complete state.
inline void fuzz_against_shadow(const CacheGeometry& g, std::uint64_t seed,
                                std::uint64_t ops) {
  TagArray arr(g);
  ShadowArray model(g);
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const LineAddr line = random_line(rng, g);
    switch (rng.below(6)) {
      case 0:
      case 1: {  // weighted: lookups dominate real traffic
        const bool is_write = rng.below(2) != 0;
        const auto a = arr.lookup(line, is_write);
        const auto m = model.lookup(line, is_write);
        ASSERT_EQ(a.hit, m.hit) << "op " << i;
        if (a.hit) {
          ASSERT_EQ(a.way, m.way) << "op " << i;
          ASSERT_EQ(a.was_prefetched, m.was_prefetched) << "op " << i;
        }
        break;
      }
      case 2: {
        const bool prefetched = rng.below(2) != 0;
        const bool dirty = rng.below(2) != 0;
        TagArray::FillResult fa, fm;
        const bool a = arr.fill_if_absent(line, prefetched, dirty, &fa);
        const bool m = model.fill_if_absent(line, prefetched, dirty, &fm);
        ASSERT_EQ(a, m) << "op " << i;
        if (a) {
          ASSERT_EQ(fa.way, fm.way) << "op " << i;
          ASSERT_EQ(fa.evicted, fm.evicted) << "op " << i;
          if (fa.evicted) {
            ASSERT_EQ(fa.victim, fm.victim) << "op " << i;
            ASSERT_EQ(fa.victim_was_prefetched, fm.victim_was_prefetched);
            ASSERT_EQ(fa.victim_was_dirty, fm.victim_was_dirty);
          }
        }
        break;
      }
      case 3: {
        bool da = false, dm = false;
        ASSERT_EQ(arr.invalidate(line, &da), model.invalidate(line, &dm))
            << "op " << i;
        ASSERT_EQ(da, dm) << "op " << i;
        break;
      }
      case 4: {
        ASSERT_EQ(arr.contains(line), model.find(line) != ~0u) << "op " << i;
        std::uint32_t w = 0;
        const bool found = arr.find_way(line, &w);
        ASSERT_EQ(found, model.find(line) != ~0u) << "op " << i;
        if (found) {
          ASSERT_EQ(w, model.find(line)) << "op " << i;
        }
        break;
      }
      case 5: {
        ASSERT_EQ(arr.mark_dirty(line), model.mark_dirty(line)) << "op " << i;
        ASSERT_EQ(arr.is_dirty(line), model.is_dirty(line)) << "op " << i;
        break;
      }
    }
    if ((i & 255) == 255) {
      ASSERT_EQ(arr.valid_count(), model.valid_count()) << "op " << i;
      for (std::uint64_t s = 0; s < g.sets(); ++s) {
        std::vector<LineAddr> got;
        arr.visit_valid_in_set(s, [&](LineAddr l) { got.push_back(l); });
        ASSERT_EQ(got, model.valid_lines(s)) << "set " << s << " op " << i;
      }
      const std::vector<std::uint64_t> ckpt = arr.ckpt_entries();
      for (std::uint64_t s = 0; s < g.sets(); ++s) {
        for (std::uint32_t w = 0; w < g.ways; ++w) {
          ASSERT_EQ(ckpt[s * g.ways + w], model.ckpt_entry(s, w))
              << "set " << s << " way " << w << " op " << i;
        }
      }
    }
  }
}

// The geometries the fuzz runs over: embedded LRU (<= 16 ways; 2, 3, 5 and
// 12 leave pad lanes in the last lane word, 8 is the L2's associativity),
// wide LRU with the side rank array (> 16 ways), and 80 ways so the lane
// scan runs over twenty lane words.
inline std::vector<CacheGeometry> fuzz_geometries() {
  std::vector<CacheGeometry> gs;
  for (std::uint32_t ways : {1u, 2u, 3u, 4u, 5u, 8u, 12u, 16u, 32u, 80u}) {
    CacheGeometry g;
    g.ways = ways;
    const std::uint64_t sets = ways > 64 ? 16 : 64;
    g.size_bytes = sets * ways * std::uint64_t{64};
    gs.push_back(g);
  }
  return gs;
}

}  // namespace fuzz
}  // namespace redhip
