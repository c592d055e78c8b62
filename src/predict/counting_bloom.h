// CountingBloomFilter — the CBF baseline (Ghosh et al., ARCS'06, paper [9]).
//
// One hash function (xor-hash, which [9] found sufficient and more accurate
// than bits-hash for CBFs), 3-bit saturating counters.  A counter that ever
// reaches its maximum is *disabled*: decrements can no longer be trusted, so
// it sticks at "present" forever — the conservative choice that preserves
// the no-false-negative guarantee.  Unlike ReDHiP the CBF tracks evictions
// (decrement) instead of recalibrating.
//
// The evaluation gives the CBF the same 512 KB area budget as ReDHiP:
// 2^20 entries x 3-bit counters = 384 KB of counter state plus decode —
// the largest power-of-two entry count that fits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "predict/predictor.h"

namespace redhip {

struct CbfConfig {
  std::uint32_t index_bits = 20;   // 2^index_bits counters
  std::uint32_t counter_bits = 3;  // saturate-and-disable at 2^counter_bits-1
  PredictorEnergyParams energy;    // same table-access cost model as the PT

  // Largest power-of-two entry count whose counters fit in `budget_bytes`.
  static CbfConfig for_area_budget(std::uint64_t budget_bytes,
                                   std::uint32_t counter_bits = 3);
  std::uint64_t entries() const { return std::uint64_t{1} << index_bits; }
  std::uint64_t storage_bits() const { return entries() * counter_bits; }
  void validate() const;
};

class CountingBloomFilter final : public LlcPredictor {
 public:
  explicit CountingBloomFilter(const CbfConfig& config);

  Prediction query(LineAddr line) override;
  void on_fill(LineAddr line) override;
  void on_evict(LineAddr line) override;
  Cycles lookup_delay() const override { return config_.energy.total_delay(); }
  std::string name() const override { return "CBF"; }

  // --- Checkpoint ----------------------------------------------------------
  // The saved state, in on-disk order (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return field_list(s.events_, std::span(s.counters_),
                      std::span(s.disabled_));
  }
  void ckpt_save(ByteWriter& w) const override { w.put(*this); }
  bool ckpt_load(ByteReader& r) override { return r.get_checked(*this); }
  // No counter above the maximum, every disabled counter at it, and no
  // disabled bit past the last entry.
  bool state_ok() const;

  // --- Introspection -------------------------------------------------------
  const CbfConfig& config() const { return config_; }
  // Branch-free xor-fold of the line address down to index_bits.  Identical
  // output to bitops' loop-until-zero xor_fold for every input: AND
  // distributes over XOR and every chunk shifted past bit 63 is zero, so
  // folding a fixed number of chunks (ceil(64/width)) and masking once at
  // the end gives the same hash with a trip count that does not depend on
  // the address — one pass per line on the simulator's hot path.
  std::uint64_t index_of(LineAddr line) const {
    std::uint64_t h = line;
    for (std::uint32_t s = config_.index_bits; s < 64; s += config_.index_bits) {
      h ^= line >> s;
    }
    return h & index_mask_;
  }
  std::uint8_t counter(std::uint64_t index) const { return counters_[index]; }
  bool disabled(std::uint64_t index) const;
  std::uint64_t disabled_count() const;

 private:
  CbfConfig config_;
  std::uint8_t max_count_;
  std::uint64_t index_mask_;
  std::vector<std::uint8_t> counters_;
  std::vector<std::uint64_t> disabled_;  // bitset: counter overflowed
};

}  // namespace redhip
