// HierarchyModel — a deliberately naive whole-hierarchy model of one run,
// the oracle MulticoreSimulator::run() is differentially tested against
// (tests/model/model_diff_test.cc).
//
// It shares no code with the engine.  Its inputs are the config structs,
// the per-core reference streams (MemRef / TraceSource) and, for fault
// configs, a second FaultInjector built from the same FaultConfig; it never
// touches src/cache, src/predict, src/prefetch, the core scheduler or the
// CPI accumulator.  Everything is written out the slow, obvious way:
//
//   * every cache set is one LRU stack (MRU first) in a std::vector, with
//     no ways, partial tags, recency words or memos;
//   * the inclusive / hybrid / exclusive rules of DESIGN §4, with every
//     fill re-checking residency (no known-absent shortcut) and every
//     back-invalidation scanning every private level of every core (no
//     presence directory, no early stop);
//   * the ReDHiP table as a std::vector<bool> indexed by the bits-hash,
//     with batch, rolling and per-eviction ("interval 1") recalibration;
//     the CBF as counters plus a disabled flag per entry; the partial-tag
//     mirror and the oracle read straight from the LLC stacks;
//   * the stride prefetcher's reference prediction table, the auto-disable
//     epochs, the invariant auditor and its recovery policies;
//   * an O(cores) min-clock scan with ties to the lowest core id, and the
//     fixed-point CPI remainder kept per core.
//
// Speed is irrelevant; clarity is the point.  A run that takes a different
// decision anywhere shows up as a counter, tag-content or PT-bit mismatch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/ledger.h"
#include "fault/fault.h"
#include "sim/config.h"
#include "trace/mem_ref.h"

namespace redhip::model {

// One resident line, as the model's LRU stacks hold it.
struct ModelLine {
  LineAddr line = 0;
  bool dirty = false;
  bool prefetched = false;
  bool operator==(const ModelLine&) const = default;
};

// The model's counterpart of the simulated fields of SimResult.
struct ModelResult {
  std::vector<LevelEvents> levels;
  PredictorEvents predictor;
  PrefetchEvents prefetch;
  std::uint64_t memory_accesses = 0;
  std::uint64_t demand_memory_accesses = 0;
  std::uint64_t memory_writebacks = 0;
  Cycles recal_stall_cycles = 0;
  std::uint64_t predictor_disabled_refs = 0;
  FaultStats fault;
  std::vector<Cycles> core_cycles;
  std::uint64_t total_refs = 0;
};

class HierarchyModel {
 public:
  HierarchyModel(const HierarchyConfig& config,
                 std::vector<std::unique_ptr<TraceSource>> traces,
                 std::vector<std::uint32_t> cpi_centi);

  // Run until every core has executed `max_refs_per_core` references or
  // its trace ended.  Under RecoveryPolicy::kAbortRetry a violation throws
  // exactly what the engine throws (TransientFaultError or
  // std::runtime_error), leaving the state where the throw happened.
  ModelResult run(std::uint64_t max_refs_per_core);

  // The executing core of every reference, in execution order.
  const std::vector<CoreId>& schedule() const { return schedule_; }

  // Contents of one set, MRU first.  `core` is ignored for the LLC.
  const std::vector<ModelLine>& set_contents(std::uint32_t level, CoreId core,
                                             std::uint64_t set) const;
  std::uint64_t sets(std::uint32_t level) const;
  // The shared-LLC ReDHiP table (ReDHiP on an inclusive or hybrid
  // hierarchy); meaningless otherwise.
  const std::vector<bool>& pt_bits() const { return pt_; }

 private:
  using Set = std::vector<ModelLine>;  // MRU first, at most `ways` lines
  struct Cache {
    std::uint64_t sets = 0;
    std::uint32_t ways = 0;
    std::vector<Set> data;
  };
  struct Probe {
    bool hit = false;
    Cycles latency = 0;
  };
  // One exclusive-hierarchy ReDHiP table (one per private level per core,
  // plus the LLC's).
  struct LevelPt {
    std::vector<bool> bits;
    PredictorEvents events;
  };
  // One stride-prefetcher table entry.
  struct RptEntry {
    std::uint32_t tag = 0;
    bool valid = false;
    int state = 0;  // 0 initial, 1 transient, 2 steady
    Addr last_addr = 0;
    std::int64_t stride = 0;
  };

  bool is_llc(std::uint32_t lvl) const { return lvl + 1 == levels_; }
  Cache& cache(std::uint32_t lvl, CoreId core);
  const Cache& cache(std::uint32_t lvl, CoreId core) const;
  Set& set_for(std::uint32_t lvl, CoreId core, LineAddr line);
  ModelLine* find(std::uint32_t lvl, CoreId core, LineAddr line);
  bool contains(std::uint32_t lvl, CoreId core, LineAddr line) {
    return find(lvl, core, line) != nullptr;
  }
  // Remove `line` if resident; returns whether it was and its dirty bit.
  bool remove(std::uint32_t lvl, CoreId core, LineAddr line, bool* was_dirty);
  // Push `line` on top of its set; returns true and the LRU line when the
  // set overflowed.
  bool push(std::uint32_t lvl, CoreId core, const ModelLine& line,
            ModelLine* victim);

  // --- The access walk -----------------------------------------------------
  Cycles access(CoreId core, const MemRef& ref);
  Probe probe(std::uint32_t lvl, CoreId core, LineAddr line, bool is_write);
  void fill(std::uint32_t lvl, CoreId core, LineAddr line, bool prefetched,
            bool dirty);
  void writeback_victim(std::uint32_t lvl, CoreId core, LineAddr victim);
  void back_invalidate(std::uint32_t below, CoreId core, LineAddr victim);
  void cascade(CoreId core, LineAddr line, std::uint32_t last, bool dirty);
  Cycles access_inclusive(CoreId core, LineAddr line, bool is_write);
  Cycles access_hybrid(CoreId core, LineAddr line, bool is_write);
  Cycles access_exclusive(CoreId core, LineAddr line, bool is_write);
  void prefetch(CoreId core, const MemRef& ref);
  std::vector<LineAddr> observe(CoreId core, const MemRef& ref);

  // --- The single LLC predictor (inclusive / hybrid) -----------------------
  bool has_llc_predictor() const;
  bool predict_absent(LineAddr line, Cycles& latency);
  void predictor_fill(LineAddr line);
  void predictor_evict(LineAddr victim);
  void note_l1_miss();
  bool audit_allows_bypass(LineAddr line);
  void inject_pt_faults();
  void evaluate_auto_disable();
  // ReDHiP recalibration: the whole table, or the entries of `count` LLC
  // sets from `first` (which an injected fault may drop).
  Cycles recalibrate_pt();
  Cycles recalibrate_pt_sets(std::uint64_t first, std::uint64_t count);
  void stall_all(Cycles cycles);

  // --- Exclusive ReDHiP ----------------------------------------------------
  LevelPt& level_pt(std::uint32_t lvl, CoreId core);
  void recalibrate_level_pt(LevelPt& pt, const Cache& covered);

  HierarchyConfig config_;
  std::uint32_t levels_ = 0;
  std::uint32_t line_bytes_ = 0;
  std::vector<Cache> private_;  // [lvl * cores + core], lvl < levels_ - 1
  Cache llc_;

  struct Core {
    std::unique_ptr<TraceSource> trace;
    std::uint64_t cpi_centi = 0;
    std::uint64_t cpi_remainder = 0;  // hundredths of a cycle
    Cycles clock = 0;
    std::uint64_t refs = 0;
    bool done = false;
    std::vector<RptEntry> rpt;
  };
  std::vector<Core> cores_;
  std::vector<CoreId> schedule_;

  ModelResult r_;
  PredictorEvents llc_pred_events_;
  // ReDHiP over the LLC.
  std::vector<bool> pt_;
  std::uint64_t pt_misses_since_recal_ = 0;
  std::uint64_t pt_rolling_cursor_ = 0;
  std::uint64_t pt_rolling_credit_ = 0;
  // CBF.
  std::vector<std::uint32_t> cbf_count_;
  std::vector<bool> cbf_disabled_;
  // Exclusive ReDHiP: [lvl][core] for private levels 1..N-2, then the LLC.
  std::vector<std::vector<LevelPt>> excl_pt_;
  LevelPt excl_llc_pt_;
  std::uint64_t excl_l1_misses_ = 0;
  // Auto-disable.
  bool predictor_on_ = true;
  std::uint64_t epoch_refs_ = 0;
  std::uint64_t epoch_misses0_ = 0;
  std::uint64_t epoch_lookups0_ = 0;
  std::uint64_t epoch_absents0_ = 0;
  std::uint32_t backoff_ = 1;
  std::uint32_t disabled_left_ = 0;
  // Fault injection (the model's own injector, same FaultConfig).
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace redhip::model
