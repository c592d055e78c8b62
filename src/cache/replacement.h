// Replacement policies for set-associative tag arrays.
//
// The paper's hierarchy uses LRU; the other policies exist for the
// replacement-policy ablation bench.  TagArray keeps every policy's per-set
// state itself (see the replacement section of cache/tag_array.h), and
// CacheGeometry::validate() holds each policy's associativity limit.
#pragma once

#include <cstdint>
#include <string>

namespace redhip {

enum class ReplacementKind : std::uint8_t {
  kLru,       // true LRU
  kTreePlru,  // tree pseudo-LRU (binary decision tree per set)
  kNru,       // not-recently-used (single reference bit per way)
  kRandom,    // uniform random victim
};

std::string to_string(ReplacementKind kind);

}  // namespace redhip
