// EpochSample — one row of the per-epoch metric series.
//
// Epochs partition a run into windows of `ObsConfig::epoch_refs` aggregate
// references (or `epoch_cycles` simulated cycles); the final epoch may be
// shorter.  All fields are deterministic functions of the simulated run, so
// the series is identical across runs and restores of the same (config,
// seed) and is compared by stats_identical().
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

namespace redhip {

struct EpochSample {
  std::uint64_t index = 0;       // 0-based epoch number
  std::uint64_t end_ref = 0;     // aggregate refs completed at close
  std::uint64_t end_cycles = 0;  // closing core's clock incl. global stalls
  std::uint64_t refs = 0;        // refs inside this epoch

  // Demand-side activity deltas over the epoch.
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;

  // Predictor confusion counts (deltas).  The ReDHiP presence table can
  // only over-approximate the LLC, so false negatives are structurally
  // impossible: fn is the invariant-audit violation delta and is asserted
  // zero whenever fault injection is off.
  std::uint64_t lookups = 0;
  std::uint64_t predicted_absent = 0;
  std::uint64_t predicted_present = 0;
  std::uint64_t tp = 0;  // predicted present, line was present
  std::uint64_t fp = 0;  // predicted present, line was absent
  std::uint64_t tn = 0;  // predicted absent, line was absent
  std::uint64_t fn = 0;  // predicted absent, line was present (faults only)

  std::uint64_t recalibrations = 0;  // recal passes completed this epoch
  std::uint64_t pt_occupancy = 0;    // presence-table bits set at close
  bool predictor_active = true;      // auto-disable state at close

  // Serialized fields in on-disk order (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.index, s.end_ref, s.end_cycles, s.refs, s.l1_accesses,
                    s.l1_misses, s.lookups, s.predicted_absent,
                    s.predicted_present, s.tp, s.fp, s.tn, s.fn,
                    s.recalibrations, s.pt_occupancy, s.predictor_active);
  }
  friend bool operator==(const EpochSample&, const EpochSample&) = default;
};

using EpochSeries = std::vector<EpochSample>;

}  // namespace redhip
