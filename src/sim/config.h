// HierarchyConfig — everything that defines one simulated machine.
//
// `paper()` builds the paper's Table I machine; `scaled(f)` divides every
// capacity (caches, PT, recalibration interval) by a power-of-two factor so
// the whole suite runs on small machines while preserving the pressure
// ratios between workload working sets and cache capacities (workloads are
// scaled by the same factor — see trace/workloads.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "energy/params.h"
#include "fault/fault.h"
#include "obs/obs_config.h"
#include "predict/counting_bloom.h"
#include "predict/partial_tag.h"
#include "predict/redhip_table.h"
#include "prefetch/stride_prefetcher.h"

namespace redhip {

enum class Scheme : std::uint8_t {
  kBase,    // no prediction; parallel tag+data everywhere
  kPhased,  // serialized tag->data at the large levels (L3/L4)
  kCbf,     // counting-Bloom-filter LLC prediction
  kRedhip,  // the paper's mechanism
  kOracle,  // perfect LLC-presence prediction, zero overhead
  kPartialTag,  // extension baseline: per-way partial-tag mirror (related
                // work [17]/[30]); conservative, never stale, ~2x the area
};
std::string to_string(Scheme s);

// What the online invariant auditor does when a predicted-absent bypass
// turns out to hide an LLC-resident line (possible only under injected
// faults; see src/fault).
enum class RecoveryPolicy : std::uint8_t {
  kCountOnly,    // detect, correct this access, keep the corrupt table
  kRecalibrate,  // detect, correct, emergency-recalibrate the PT (stall +
                 // energy charged like any scheduled recalibration)
  kAbortRetry,   // detect and throw TransientFaultError; run_matrix retries
                 // the run (bounded, reseeded) when the fault is transient
};
std::string to_string(RecoveryPolicy p);

enum class InclusionPolicy : std::uint8_t {
  kInclusive,  // every level contains all lines of the levels above it
  kHybrid,     // private levels mutually exclusive; shared LLC inclusive
  kExclusive,  // all levels hold disjoint lines
};
std::string to_string(InclusionPolicy p);

struct LevelSpec {
  CacheGeometry geom;
  LevelEnergyParams energy;
  bool phased = false;  // tag then data (only meaningful for split levels)
};

struct HierarchyConfig {
  // The core scheduler packs the core id into one byte of its key
  // (sim/scheduler.h).
  static constexpr std::uint32_t kMaxCores = 256;

  std::uint32_t cores = 8;
  double freq_ghz = 3.7;
  // Ordered L1..LN.  All but the last are private (one instance per core);
  // the last is shared.
  std::vector<LevelSpec> levels;
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  Scheme scheme = Scheme::kBase;
  RedhipConfig redhip;
  CbfConfig cbf;
  PartialTagConfig partial_tag;
  bool prefetch = false;
  StridePrefetcherConfig prefetcher;
  // The paper treats memory as a perfect store: no delay, no energy.
  Cycles memory_latency = 0;
  double memory_energy_nj = 0.0;
  // Price line installs as array writes (see EnergyLedger); the paper's
  // accounting normalizes lookup traffic, so this defaults off.
  bool charge_fill_energy = false;
  // Track dirty lines and charge writeback traffic (a data write at the
  // receiving level, a memory write for LLC victims).  Off by default —
  // the paper does not model writebacks ("memory is ... a data store that
  // always hits with no delay and no energy"); `ablation_writeback` shows
  // the effect of turning it on.
  bool model_writebacks = false;

  // Paper §IV: "In the case when the L1 cache miss rate is very low or the
  // LLC is rarely used, our prediction mechanism would be disabled to not
  // waste energy or add latency."  When enabled, the simulator evaluates
  // the predictor's usefulness every `epoch_refs` references and gates it
  // off (no lookups, no latency, no energy, recalibration paused) while the
  // workload gives it nothing to do; re-probes with exponential backoff and
  // recalibrates on re-activation.
  struct AutoDisable {
    bool enabled = false;
    std::uint64_t epoch_refs = 100'000;      // aggregate over all cores
    std::uint32_t min_l1_miss_ppm = 20'000;  // <2% L1 misses: pointless
    std::uint32_t min_bypass_ppm = 50'000;   // <5% of lookups bypass: wasteful
    std::uint32_t max_backoff_epochs = 8;
  } auto_disable;

  // Fault model & recovery (DESIGN.md).  `fault` injects deterministic
  // corruption; `audit` shadow-checks every predicted-absent bypass against
  // the LLC tag array and applies the recovery policy on a violation.  Both
  // default off and are zero-overhead when off.
  FaultConfig fault;
  struct InvariantAudit {
    bool enabled = false;
    RecoveryPolicy policy = RecoveryPolicy::kRecalibrate;
  } audit;

  // Observability layer (src/obs): per-epoch metric sampling and the
  // structured JSONL event trace.  Off by default; when off, the run loops
  // pay one predicted branch per reference and nothing else.
  ObsConfig obs;

  std::uint64_t seed = 0x5eed;

  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(levels.size());
  }
  const LevelSpec& llc() const { return levels.back(); }

  void validate() const;

  // Table I machine: 32K/256K/4M private + 64M shared, 512KB PT with 1M-miss
  // recalibration, 512KB-budget CBF, 4K-entry stride prefetcher.
  static HierarchyConfig paper(Scheme scheme,
                               InclusionPolicy inclusion =
                                   InclusionPolicy::kInclusive);
  // Same machine with all capacities divided by `scale` (a power of two).
  static HierarchyConfig scaled(std::uint32_t scale, Scheme scheme,
                                InclusionPolicy inclusion =
                                    InclusionPolicy::kInclusive);

  // The paper's motivating trend ("deep cache hierarchies with 4 or more
  // levels will become pervasive"): the same machine with `depth` levels
  // (2..5).  Depths 2/3 drop the middle private levels; depth 4 is Table I;
  // depth 5 adds a private 32 MB L4 slice under a 512 MB shared L5 with
  // cacti_lite-extrapolated parameters.  The PT keeps the 0.78% area ratio
  // against whatever the LLC is.
  static HierarchyConfig with_depth(std::uint32_t depth, std::uint32_t scale,
                                    Scheme scheme);
  // Size and price the LLC predictors from the current LLC: the PT at the
  // 0.78% area ratio with its wire delay, the CBF at the PT's budget, and
  // the partial-tag mirror at its own geometry.
  void size_predictors_from_llc();

  // Derived ReDHiP config for one level of an exclusive hierarchy: a PT at
  // the same area ratio as the LLC's (paper §III-C: "duplicated and scaled
  // down correspondingly to cache size ... at the same storage overhead
  // ratio").
  RedhipConfig redhip_for_size(std::uint64_t cache_size_bytes) const;
  // Its table_bits (at least 64).  validate() rejects an exclusive ReDHiP
  // machine where this is not a power of two for some private level.
  std::uint64_t redhip_bits_for_size(std::uint64_t cache_size_bytes) const;
};

}  // namespace redhip
