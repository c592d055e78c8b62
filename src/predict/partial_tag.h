// PartialTagPredictor — an extension baseline from the paper's related work
// (Liu, "Cache designs with partial address matching" [17]; the same idea
// powers way-halting caches [30]).
//
// A small array beside the LLC mirrors, per set, the low `partial_bits` of
// every resident way's tag.  On a query, if *no* way's partial tag matches
// the address, the full tags cannot match either — a guaranteed miss, so the
// prediction is conservative by construction, with no recalibration needed.
// False positives happen only when another resident line in the same set
// shares the partial tag (~ways/2^partial_bits per probe).
//
// The trade-off against ReDHiP: at 8 partial bits the structure costs
// ~2x ReDHiP's area (8+ bits per LLC line vs 4 table bits per line) and its
// lookup reads `ways` entries instead of one bit — but it never goes stale.
// The `extension_partial_tags` bench quantifies exactly this trade-off.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "predict/predictor.h"

namespace redhip {

struct PartialTagConfig {
  std::uint32_t partial_bits = 8;  // low bits of the tag kept per way
  PredictorEnergyParams energy;

  void validate() const;
};

class PartialTagPredictor final : public LlcPredictor {
 public:
  // Mirrors a cache with `sets` x `ways` geometry; `set_bits` positions the
  // tag within a line address.
  PartialTagPredictor(const PartialTagConfig& config, std::uint64_t sets,
                      std::uint32_t ways, std::uint32_t set_bits);

  Prediction query(LineAddr line) override;
  void on_fill(LineAddr line) override;
  void on_evict(LineAddr line) override;
  Cycles lookup_delay() const override { return config_.energy.total_delay(); }
  std::string name() const override { return "PartialTag"; }

  // --- Checkpoint ----------------------------------------------------------
  // The saved state, in on-disk order (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return field_list(s.events_, std::span(s.slots_), s.occupied_);
  }
  void ckpt_save(ByteWriter& w) const override { w.put(*this); }
  bool ckpt_load(ByteReader& r) override { return r.get_checked(*this); }
  // Every partial tag fits its width, and occupancy counts the valid slots.
  bool state_ok() const;

  // --- Introspection -------------------------------------------------------
  const PartialTagConfig& config() const { return config_; }
  std::uint64_t storage_bits() const {
    return sets_ * ways_ * (config_.partial_bits + 1);
  }
  std::uint64_t occupancy() const { return occupied_; }

 private:
  struct Slot {
    std::uint16_t partial = 0;
    bool valid = false;

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.partial, s.valid);
    }
  };

  std::uint64_t set_of(LineAddr line) const { return line & (sets_ - 1); }
  std::uint16_t partial_mask() const {
    return static_cast<std::uint16_t>((1u << config_.partial_bits) - 1);
  }
  std::uint16_t partial_of(LineAddr line) const {
    return static_cast<std::uint16_t>((line >> set_bits_) & partial_mask());
  }
  Slot* set_begin(std::uint64_t set) { return &slots_[set * ways_]; }

  PartialTagConfig config_;
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint32_t set_bits_;
  std::vector<Slot> slots_;
  std::uint64_t occupied_ = 0;
};

}  // namespace redhip
