#include "sim/config.h"

#include <algorithm>

#include "common/check.h"
#include "energy/cacti_lite.h"

namespace redhip {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kBase:
      return "Base";
    case Scheme::kPhased:
      return "Phased";
    case Scheme::kCbf:
      return "CBF";
    case Scheme::kRedhip:
      return "ReDHiP";
    case Scheme::kOracle:
      return "Oracle";
    case Scheme::kPartialTag:
      return "PartialTag";
  }
  return "unknown";
}

std::string to_string(InclusionPolicy p) {
  switch (p) {
    case InclusionPolicy::kInclusive:
      return "inclusive";
    case InclusionPolicy::kHybrid:
      return "hybrid";
    case InclusionPolicy::kExclusive:
      return "exclusive";
  }
  return "unknown";
}

std::string to_string(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kCountOnly:
      return "count-only";
    case RecoveryPolicy::kRecalibrate:
      return "recalibrate";
    case RecoveryPolicy::kAbortRetry:
      return "abort-retry";
  }
  return "unknown";
}

void HierarchyConfig::validate() const {
  REDHIP_CHECK_MSG(cores >= 1, "at least one core");
  REDHIP_CHECK_MSG(cores <= kMaxCores, "at most 256 cores");
  REDHIP_CHECK_MSG(levels.size() >= 2, "need at least two cache levels");
  REDHIP_CHECK_MSG(levels.size() <= 15, "at most 15 cache levels");
  REDHIP_CHECK_MSG(freq_ghz > 0.0, "frequency must be positive");
  for (const auto& lvl : levels) lvl.geom.validate();
  for (std::size_t i = 1; i < levels.size(); ++i) {
    REDHIP_CHECK_MSG(levels[i].geom.line_bytes == levels[0].geom.line_bytes,
                     "all levels must share one line size");
  }
  if (scheme == Scheme::kRedhip) {
    redhip.validate();
    // The bits-hash containment property (paper Fig. 3): the PT index must
    // be wider than the LLC set index so that PT aliases share a cache set.
    REDHIP_CHECK_MSG(redhip.index_bits() > llc().geom.set_bits(),
                     "PT index bits must exceed LLC set bits (p > k)");
  }
  if (scheme == Scheme::kCbf) cbf.validate();
  if (scheme == Scheme::kPartialTag) partial_tag.validate();
  if (prefetch) {
    prefetcher.validate();
    REDHIP_CHECK_MSG(inclusion == InclusionPolicy::kInclusive,
                     "prefetching is modeled for the inclusive hierarchy");
  }
  if (inclusion == InclusionPolicy::kExclusive) {
    REDHIP_CHECK_MSG(scheme == Scheme::kBase || scheme == Scheme::kRedhip ||
                         scheme == Scheme::kOracle,
                     "exclusive hierarchy supports Base/ReDHiP/Oracle");
    REDHIP_CHECK_MSG(!auto_disable.enabled,
                     "auto-disable is modeled for the single-LLC-predictor "
                     "(inclusive/hybrid) configurations");
    if (scheme == Scheme::kRedhip) {
      // Each private level below L1 gets its own PT, sized from the LLC
      // PT by the level's share of the LLC capacity (redhip_for_size).
      for (std::size_t i = 1; i + 1 < levels.size(); ++i) {
        const std::uint64_t size = levels[i].geom.size_bytes;
        const std::uint64_t bits = redhip_bits_for_size(size);
        REDHIP_CHECK_MSG(
            is_pow2(bits),
            "exclusive ReDHiP: L" + std::to_string(i + 1) + " (" +
                std::to_string(size) + " bytes) would get a PT of " +
                std::to_string(bits) +
                " bits, not a power of two; its size must be a power-of-two "
                "fraction of the LLC's");
      }
    }
  }
  if (auto_disable.enabled) {
    REDHIP_CHECK_MSG(auto_disable.epoch_refs > 0, "epoch must be positive");
  }
  obs.validate();
  fault.validate();
  if (fault.enabled) {
    const std::uint32_t pt_sites =
        static_cast<std::uint32_t>(FaultSite::kPtBitClear) |
        static_cast<std::uint32_t>(FaultSite::kPtBitSet) |
        static_cast<std::uint32_t>(FaultSite::kRecalDrop);
    if ((fault.site_mask & pt_sites) != 0) {
      REDHIP_CHECK_MSG(scheme == Scheme::kRedhip &&
                           inclusion != InclusionPolicy::kExclusive,
                       "PT fault sites target the shared-LLC ReDHiP table "
                       "(scheme=redhip, inclusive/hybrid)");
    }
  }
  if (audit.enabled) {
    REDHIP_CHECK_MSG(inclusion != InclusionPolicy::kExclusive,
                     "the invariant auditor covers the single-LLC-predictor "
                     "(inclusive/hybrid) configurations");
  }
}

namespace {

LevelSpec make_level(std::uint64_t size, std::uint32_t ways,
                     std::uint32_t banks, bool phased, bool split_tags) {
  LevelSpec lvl;
  lvl.geom.size_bytes = size;
  lvl.geom.ways = ways;
  lvl.geom.banks = banks;
  lvl.energy = CactiLite::cache_params(size, split_tags);
  lvl.phased = phased;
  return lvl;
}

}  // namespace

HierarchyConfig HierarchyConfig::paper(Scheme scheme,
                                       InclusionPolicy inclusion) {
  return scaled(1, scheme, inclusion);
}

HierarchyConfig HierarchyConfig::scaled(std::uint32_t scale, Scheme scheme,
                                        InclusionPolicy inclusion) {
  REDHIP_CHECK_MSG(scale >= 1 && is_pow2(scale),
                   "scale must be a power of two");
  HierarchyConfig c;
  c.scheme = scheme;
  c.inclusion = inclusion;
  const bool phased = scheme == Scheme::kPhased;
  // Table I geometries divided by `scale`; associativity and banking are
  // structural choices and do not scale.
  // L3/L4 keep their split tag/data organization at every scale (that is
  // what Phased Cache serializes and what miss-at-tag timing depends on).
  c.levels = {
      make_level(32_KiB / scale, 4, 1, false, false),
      make_level(256_KiB / scale, 8, 1, false, false),
      make_level(4_MiB / scale, 16, 4, phased, true),
      make_level(64_MiB / scale, 16, 8, phased, true),
  };
  // ReDHiP: 512KB of 1-bit entries = 2^22 bits (sized from the LLC below),
  // recalibration every 1M L1 misses, 4 banks — all divided by `scale`.
  c.redhip.recal_interval_l1_misses = 1'000'000 / scale;
  c.redhip.banks = 4;
  // The paper's deployed design recalibrates incrementally (§IV:
  // "Recalibration is performed incrementally with an update for every
  // table entry every 1 million L1 misses").
  c.redhip.recal_mode = RecalMode::kRolling;
  // Partial-tag mirror: 8-bit partial tags.
  c.partial_tag.partial_bits = 8;
  c.size_predictors_from_llc();
  // Stride prefetcher: large table ("accuracy comparable with the best").
  c.prefetcher.index_bits = 12;
  c.prefetcher.degree = 2;
  c.prefetcher.distance = 1;
  c.validate();
  return c;
}

HierarchyConfig HierarchyConfig::with_depth(std::uint32_t depth,
                                            std::uint32_t scale,
                                            Scheme scheme) {
  REDHIP_CHECK_MSG(depth >= 2 && depth <= 5, "supported depths: 2..5");
  HierarchyConfig c = scaled(scale, scheme);
  const bool phased = scheme == Scheme::kPhased;
  switch (depth) {
    case 2:
      // L1 + the shared LLC.
      c.levels = {c.levels[0], c.levels[3]};
      break;
    case 3:
      c.levels = {c.levels[0], c.levels[1], c.levels[3]};
      break;
    case 4:
      break;  // Table I
    case 5: {
      // A private 32MB slice under a 512MB shared L5 — the trend line the
      // paper's Figure 1 extrapolates.
      c.levels.insert(c.levels.end() - 1,
                      make_level(32_MiB / scale, 16, 8, phased, true));
      c.levels.back() = make_level(512_MiB / scale, 16, 16, phased, true);
      break;
    }
  }
  c.size_predictors_from_llc();
  c.validate();
  return c;
}

void HierarchyConfig::size_predictors_from_llc() {
  // The PT keeps the paper's 0.78% area ratio against the LLC: 2^22 bits
  // for 64 MB, one PT line per set.
  redhip.table_bits = llc().geom.size_bytes / 16;
  redhip.energy = CactiLite::pt_params(redhip.table_bits / 8);
  // The 5-cycle wire delay is the physical distance from the core to the
  // PT beside the LLC; a smaller or larger chip scales it with the LLC's
  // own access time (22 cycles for the 64 MB L4).
  redhip.energy.wire_delay =
      std::max<Cycles>(1, (5 * llc().energy.data_delay + 11) / 22);
  // CBF: same area budget as the PT.
  cbf = CbfConfig::for_area_budget(redhip.table_bits / 8);
  cbf.energy = redhip.energy;
  // The partial-tag mirror is priced at its own (larger) geometry, one
  // partial tag and a valid bit per LLC line, in the same place.
  partial_tag.energy = CactiLite::pt_params(
      llc().geom.lines() * (partial_tag.partial_bits + 1) / 8);
  partial_tag.energy.wire_delay = redhip.energy.wire_delay;
}

std::uint64_t HierarchyConfig::redhip_bits_for_size(
    std::uint64_t cache_size_bytes) const {
  // Keep the LLC PT's bits-per-cache-byte ratio (the paper's constant 0.78%
  // area overhead per predictor/cache pair).
  const std::uint64_t bits =
      redhip.table_bits * cache_size_bytes / llc().geom.size_bytes;
  return std::max<std::uint64_t>(bits, 64);
}

RedhipConfig HierarchyConfig::redhip_for_size(
    std::uint64_t cache_size_bytes) const {
  RedhipConfig r = redhip;
  r.table_bits = redhip_bits_for_size(cache_size_bytes);
  REDHIP_CHECK(is_pow2(r.table_bits));
  r.energy = CactiLite::pt_params(r.table_bits / 8);
  return r;
}

}  // namespace redhip
