// cacti_lite — an analytical stand-in for CACTI 6.5.
//
// The paper derives all latency/energy/leakage numbers from CACTI 6.5 and
// publishes them for the five structures it simulates (Table I).  CACTI is
// not available offline, so this model treats the published numbers as
// anchor points and interpolates between them in log(size)-log(value) space.
// At each anchor the model reproduces Table I exactly; between and beyond
// anchors it follows the power-law scaling SRAM arrays empirically exhibit
// (energy and delay grow roughly as size^alpha with alpha in [0.4, 0.7]).
// The conclusions only depend on *ratios* (tag:data ≈ 1:3..1:5, PT ≪ L2 at
// equal capacity), which interpolation preserves.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/params.h"

namespace redhip {

class CactiLite {
 public:
  // Parameters for a set-associative cache of `size_bytes`, with tag and
  // data arrays accessed either in parallel or phased (decided by caller).
  // Exact at 32 KB / 256 KB / 4 MB / 64 MB (the Table I rows).
  //
  // `force_tag_split`: always report separate tag costs, even below the
  // size where Table I folds them into one access number.  Geometry-scaled
  // hierarchies need this for the levels that are split in the full-size
  // machine (a 1/8-scale L3 is 512 KB but still has the L3's tag/data
  // organization); the split uses the 4 MB anchor's tag:data ratios.
  static LevelEnergyParams cache_params(std::uint64_t size_bytes,
                                        bool force_tag_split = false);

  // Parameters for a direct-mapped, 64-bit-entry prediction table of
  // `size_bytes`.  Exact at 512 KB (Table I's PT row); other sizes (the
  // Fig. 11 sweep: 64 KB..2 MB) scale as sqrt(size), with the access delay
  // growing by one cycle per 4x above 1 MB.
  static PredictorEnergyParams pt_params(std::uint64_t size_bytes);
};

}  // namespace redhip
