// EnergyLedger — converts simulator event counts into joules.
//
// The simulator's hot path only increments integer event counters; pricing
// happens once at the end of a run.  This keeps the per-access work minimal,
// makes the accounting exact (no accumulated floating-point error ordering
// effects), and lets one set of counters be re-priced under different
// parameter sets (used by tests and the ablation benches).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "energy/params.h"

namespace redhip {

// Events observed at one cache level, aggregated over all cores.
struct LevelEvents {
  std::uint64_t tag_probes = 0;    // tag array reads
  std::uint64_t data_probes = 0;   // data array reads
  std::uint64_t fills = 0;         // data + tag array writes (line install)
  std::uint64_t invalidations = 0; // back-invalidation tag writes
  std::uint64_t writebacks = 0;    // dirty lines received from the level
                                   // above (priced as one data write)

  // Behavioural counters (not priced, reported in stats).
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t skipped = 0;  // lookups avoided by a predictor bypass

  // Serialized fields in on-disk order (common/bytestream.h); operator+=
  // sums the same list.
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.tag_probes, s.data_probes, s.fills, s.invalidations,
                    s.writebacks, s.accesses, s.hits, s.misses, s.evictions,
                    s.skipped);
  }
  LevelEvents& operator+=(const LevelEvents& o);
  bool operator==(const LevelEvents&) const = default;
};

// Events at a prediction structure (ReDHiP PT or CBF).
struct PredictorEvents {
  std::uint64_t lookups = 0;
  std::uint64_t updates = 0;        // bit set / counter inc / counter dec
  std::uint64_t recalibrations = 0;
  std::uint64_t recal_sets_read = 0;   // LLC tag-array set reads
  std::uint64_t recal_words_written = 0;  // PT line writes

  // Behavioural counters.
  std::uint64_t predicted_absent = 0;   // bypasses taken
  std::uint64_t predicted_present = 0;
  std::uint64_t false_positives = 0;  // predicted present, LLC missed
  std::uint64_t true_positives = 0;   // predicted present, LLC hit

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.lookups, s.updates, s.recalibrations, s.recal_sets_read,
                    s.recal_words_written, s.predicted_absent,
                    s.predicted_present, s.false_positives, s.true_positives);
  }
  PredictorEvents& operator+=(const PredictorEvents& o);
  bool operator==(const PredictorEvents&) const = default;
};

struct PrefetchEvents {
  std::uint64_t table_lookups = 0;
  std::uint64_t issued = 0;       // prefetch requests sent into the hierarchy
  std::uint64_t useful = 0;       // prefetched lines hit by a demand access
  std::uint64_t useless = 0;      // prefetched lines evicted untouched
  std::uint64_t redundant = 0;    // prefetch target already cached

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.table_lookups, s.issued, s.useful, s.useless,
                    s.redundant);
  }
  PrefetchEvents& operator+=(const PrefetchEvents& o);
  bool operator==(const PrefetchEvents&) const = default;
};

// A priced breakdown, all in joules.
struct EnergyBreakdown {
  std::vector<double> level_dynamic_j;  // per level
  double predictor_dynamic_j = 0.0;     // PT/CBF lookups + updates
  double recalibration_j = 0.0;         // tag reads + PT writes
  double prefetcher_j = 0.0;            // prefetch table upkeep
  double memory_j = 0.0;                // off-chip (0 in paper mode)
  double leakage_j = 0.0;               // all arrays, over the run time

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.level_dynamic_j, s.predictor_dynamic_j,
                    s.recalibration_j, s.prefetcher_j, s.memory_j,
                    s.leakage_j);
  }
  double dynamic_total_j() const;
  double total_j() const { return dynamic_total_j() + leakage_j; }
  bool operator==(const EnergyBreakdown&) const = default;
};

class EnergyLedger {
 public:
  // `level_params[i]` prices level i; `num_private_instances` is how many
  // physical copies of each private level exist (one per core) — leakage is
  // per instance.  `shared_last_level`: the last level is a single shared
  // array.
  // `charge_fills`: when true, line installs are priced as a tag+data write
  // at the filled level.  The paper's accounting normalizes *lookup* traffic
  // (fills cost the same under every scheme and are part of the miss price
  // already charged on the walk), so the default is false; the flag exists
  // for sensitivity studies.
  EnergyLedger(std::vector<LevelEnergyParams> level_params,
               PredictorEnergyParams predictor_params,
               std::uint32_t num_private_instances, bool shared_last_level,
               bool charge_fills = false);

  // `predictor_leakage_w` is the total leakage of all prediction structures
  // (one PT in inclusive mode; the sum of the per-level PTs in exclusive
  // mode).  Pass 0 for schemes without a predictor.
  EnergyBreakdown price(const std::vector<LevelEvents>& levels,
                        const PredictorEvents& predictor,
                        const PrefetchEvents& prefetch,
                        std::uint64_t memory_accesses,
                        double memory_energy_nj, double elapsed_seconds,
                        double predictor_leakage_w) const;

  const std::vector<LevelEnergyParams>& level_params() const {
    return level_params_;
  }
  const PredictorEnergyParams& predictor_params() const {
    return predictor_params_;
  }

  // Energy of one prefetch-table operation; a small SRAM on the paper's
  // scale (4K entries ≈ 64KB), priced like a small tag structure.
  static constexpr double kPrefetchTableOpNj = 0.005;

 private:
  std::vector<LevelEnergyParams> level_params_;
  PredictorEnergyParams predictor_params_;
  std::uint32_t num_private_instances_;
  bool shared_last_level_;
  bool charge_fills_;
};

}  // namespace redhip
