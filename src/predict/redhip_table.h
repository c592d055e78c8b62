// RedhipTable — the paper's contribution.
//
// A direct-mapped table of single presence bits, indexed by the bits-hash:
// the low `p` bits of the line address (i.e. of the byte address after the
// block offset is stripped).  Because the covered cache's set index is the
// low `k` bits of the same line address and p > k, every address that
// aliases onto one PT bit belongs to the same cache set — so at most
// `associativity` resident lines can share one bit, which is what makes a
// 1-bit entry sufficient (paper §III-A).
//
// Bits are set on fill and never cleared on eviction; the table therefore
// only ever *overstates* presence (no false negatives) and drifts toward
// all-ones until recalibration rebuilds it exactly from the tag array.
//
// Recalibration (paper §III-B): one 64-bit PT line corresponds to one cache
// set when p − k = 6.  Rebuilding a line reads the set's tags, decodes the
// low p − k tag bits of each through a 6→64 decoder and ORs the 16 one-hot
// vectors — one cycle of simple logic per set, `banks` sets in parallel.
// The modeled stall is ceil(sets / banks) cycles and the modeled energy is
// one tag-array set read per set plus one PT line write per line, both
// reported through PredictorEvents.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "predict/predictor.h"
#include "predict/recal_observer.h"

namespace redhip {

enum class RecalMode : std::uint8_t {
  // Rebuild the whole table at the end of each interval, stalling for
  // ceil(sets/banks) cycles.  Simple to reason about; used by the Fig. 12
  // sweep so each interval point has one well-defined rebuild instant.
  kBatch,
  // The paper's deployed design: spread the rebuild across the interval
  // ("an update for every table entry every 1 million L1 misses"), a few
  // sets per L1 miss in round-robin, so no stall spike ever exceeds a few
  // cycles.  Same aggregate energy, same steady-state accuracy.
  kRolling,
};
std::string to_string(RecalMode m);

struct RedhipConfig {
  // Total table capacity in bits; 512 KB = 2^22 bits in the paper.  Must be
  // a power of two and at least 64 (one PT line).
  std::uint64_t table_bits = std::uint64_t{1} << 22;
  // Recalibrate every table entry once per this many L1 misses (aggregate
  // over all cores).  0 disables recalibration entirely (the "Infinite"
  // point of Fig. 12); 1 recalibrates after every L1 miss (the "perfect
  // recalibration" point).
  std::uint64_t recal_interval_l1_misses = 1'000'000;
  // PT banks that recalibrate concurrently (paper's medium effort: 4).
  std::uint32_t banks = 4;
  RecalMode recal_mode = RecalMode::kBatch;
  PredictorEnergyParams energy;

  std::uint32_t index_bits() const;
  void validate() const;
};

class RedhipTable final : public LlcPredictor {
 public:
  explicit RedhipTable(const RedhipConfig& config);

  Prediction query(LineAddr line) override;
  void on_fill(LineAddr line) override;
  void on_evict(LineAddr line) override;  // deliberately a no-op (1-bit map)
  Cycles note_l1_miss_and_maybe_recalibrate(const TagArray& covered) override;
  Cycles lookup_delay() const override { return config_.energy.total_delay(); }
  std::string name() const override { return "ReDHiP"; }

  // Rebuild the table to exactly reflect `covered` and return the modeled
  // stall cycles.  Public so tests can drive recalibration directly.
  Cycles recalibrate(const TagArray& covered);

  // Rebuild only the PT lines of `count` cache sets starting at `first_set`
  // (the rolling-recalibration work unit).  Returns the modeled stall.
  Cycles recalibrate_sets(const TagArray& covered, std::uint64_t first_set,
                          std::uint64_t count);

  // Optional standing reference to the covered tag array.  Only used for
  // the interval == 1 ("perfect recalibration", Fig. 12's leftmost point)
  // configuration: a table recalibrated after *every* L1 miss always equals
  // the exact decode of the LLC, which is maintained incrementally in
  // O(ways) by rebuilding just the evicted line's set on each eviction —
  // semantically identical to the paper's definition, and O(sets) cheaper
  // per miss to simulate.
  void attach_covered(const TagArray* covered) { covered_ = covered; }

  // --- Fault hooks (src/fault) ---------------------------------------------
  // Forcibly flip one PT bit, bypassing the conservative-superset
  // discipline.  A 1→0 flip breaks the no-false-negative invariant until
  // the next (re)calibration; a 0→1 flip is a lingering false positive.
  // Return whether the bit actually changed.
  bool corrupt_clear_bit(std::uint64_t index);
  bool corrupt_set_bit(std::uint64_t index);

  // Optional predicate consulted before each incremental recalibration
  // chunk; returning true drops that set-range (the stall is still paid —
  // the hardware did the work, the result was lost in flight).  Installed
  // by the simulator's fault injector; a dropped chunk leaves stale 1s,
  // which is conservative and therefore costs only energy, not correctness.
  using RecalChunkFilter =
      std::function<bool(std::uint64_t first_set, std::uint64_t count)>;
  void set_recal_chunk_filter(RecalChunkFilter filter) {
    recal_filter_ = std::move(filter);
  }

  // Optional observability hook (src/obs): fires around every full rebuild
  // — scheduled batch, emergency recovery, or auto-disable re-enable — and
  // once per completed rolling pass.  The interval == 1 per-eviction set
  // rebuilds are deliberately unobserved (one callback per eviction would
  // flood any trace).  Not owned.
  void set_recal_observer(RecalObserver* observer) { observer_ = observer; }

  // --- Checkpoint ----------------------------------------------------------
  void ckpt_save(ByteWriter& w) const override {
    LlcPredictor::ckpt_save(w);
    w.u64_vec(words_);
    w.u64(l1_misses_);
    w.u64(misses_since_recal_);
    w.u64(rolling_cursor_);
    w.u64(rolling_credit_);
  }
  bool ckpt_load(ByteReader& r) override {
    if (!LlcPredictor::ckpt_load(r)) return false;
    std::vector<std::uint64_t> words = r.u64_vec();
    if (!r.ok() || words.size() != words_.size()) return false;
    words_ = std::move(words);
    l1_misses_ = r.u64();
    misses_since_recal_ = r.u64();
    rolling_cursor_ = r.u64();
    rolling_credit_ = r.u64();
    return r.ok();
  }

  // --- Introspection -------------------------------------------------------
  const RedhipConfig& config() const { return config_; }
  std::uint64_t index_of(LineAddr line) const { return line & index_mask_; }
  // Pull the PT word `line` indexes toward the host caches (software
  // pipeline hint from the run loop; no simulated side effects).
  void prefetch_row(LineAddr line) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&words_[(line & index_mask_) >> 6], 0, 3);
#else
    (void)line;
#endif
  }
  bool test_bit(std::uint64_t index) const;
  std::uint64_t bits_set() const;
  std::uint64_t l1_miss_count() const { return l1_misses_; }

 private:
  void set_bit(std::uint64_t index);
  void clear_bit(std::uint64_t index);

  RedhipConfig config_;
  std::uint64_t index_mask_;
  const TagArray* covered_ = nullptr;  // see attach_covered()
  RecalChunkFilter recal_filter_;      // see set_recal_chunk_filter()
  RecalObserver* observer_ = nullptr;  // see set_recal_observer()
  std::vector<std::uint64_t> words_;
  std::uint64_t l1_misses_ = 0;
  std::uint64_t misses_since_recal_ = 0;
  // Rolling mode: next set to rebuild and the fixed-point work credit
  // (units of 1/interval sets per miss).
  std::uint64_t rolling_cursor_ = 0;
  std::uint64_t rolling_credit_ = 0;
};

}  // namespace redhip
