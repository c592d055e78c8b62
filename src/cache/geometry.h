// Cache geometry: the purely structural parameters of one tag/data array.
#pragma once

#include <cstdint>
#include <string>

#include "common/bitops.h"
#include "common/check.h"
#include "common/types.h"

#include "cache/replacement.h"

namespace redhip {

struct CacheGeometry {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = kDefaultLineBytes;
  std::uint32_t ways = 1;
  // Number of independently accessible banks.  Banking does not change hit
  // behaviour in this model; it bounds the parallelism of ReDHiP
  // recalibration (sets from different banks recalibrate concurrently).
  std::uint32_t banks = 1;
  ReplacementKind replacement = ReplacementKind::kLru;

  std::uint64_t lines() const { return size_bytes / line_bytes; }
  std::uint64_t sets() const { return lines() / ways; }
  std::uint32_t line_shift() const { return log2_exact(line_bytes); }
  std::uint32_t set_bits() const { return log2_exact(sets()); }

  void validate() const {
    REDHIP_CHECK_MSG(size_bytes > 0, "cache size must be positive");
    REDHIP_CHECK_MSG(ways >= 1, "at least one way");
    // Each policy's per-set state (see TagArray) bounds its associativity.
    switch (replacement) {
      case ReplacementKind::kLru:
        REDHIP_CHECK_MSG(ways <= 255, "lru supports at most 255 ways");
        break;
      case ReplacementKind::kTreePlru:
        REDHIP_CHECK_MSG(is_pow2(ways) && ways >= 2 && ways <= 32,
                         "tree-plru needs a power-of-two way count in 2..32");
        break;
      case ReplacementKind::kNru:
        REDHIP_CHECK_MSG(ways <= 32, "nru supports at most 32 ways");
        break;
      case ReplacementKind::kRandom:
        break;
    }
    REDHIP_CHECK_MSG(is_pow2(line_bytes), "line size must be a power of two");
    REDHIP_CHECK_MSG(size_bytes % line_bytes == 0,
                     "size must be a multiple of the line size");
    REDHIP_CHECK_MSG(lines() % ways == 0, "lines must divide evenly into ways");
    REDHIP_CHECK_MSG(is_pow2(sets()), "set count must be a power of two");
    REDHIP_CHECK_MSG(is_pow2(banks), "bank count must be a power of two");
    REDHIP_CHECK_MSG(banks <= sets(), "more banks than sets");
  }
};

}  // namespace redhip
