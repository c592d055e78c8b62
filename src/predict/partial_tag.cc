#include "predict/partial_tag.h"

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

void PartialTagConfig::validate() const {
  REDHIP_CHECK_MSG(partial_bits >= 1 && partial_bits <= 16,
                   "partial tag width out of range");
}

PartialTagPredictor::PartialTagPredictor(const PartialTagConfig& config,
                                         std::uint64_t sets,
                                         std::uint32_t ways,
                                         std::uint32_t set_bits)
    : config_(config), sets_(sets), ways_(ways), set_bits_(set_bits) {
  config_.validate();
  REDHIP_CHECK_MSG(is_pow2(sets), "mirrored set count must be a power of two");
  REDHIP_CHECK(ways >= 1);
  slots_.resize(sets_ * ways_);
}

bool PartialTagPredictor::state_ok() const {
  std::uint64_t valid = 0;
  for (const Slot& s : slots_) {
    if ((s.partial & ~partial_mask()) != 0) return false;
    valid += s.valid;
  }
  return valid == occupied_;
}

Prediction PartialTagPredictor::query(LineAddr line) {
  ++events_.lookups;
  const std::uint16_t p = partial_of(line);
  const Slot* s = set_begin(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (s[w].valid && s[w].partial == p) return Prediction::kPresent;
  }
  // No partial tag matches, so no full tag can: a provable miss.
  return Prediction::kAbsent;
}

void PartialTagPredictor::on_fill(LineAddr line) {
  ++events_.updates;
  Slot* s = set_begin(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!s[w].valid) {
      s[w] = {partial_of(line), true};
      ++occupied_;
      return;
    }
  }
  // The mirrored cache evicts before refilling a full set; reaching here
  // means the caller forgot an on_evict.
  REDHIP_CHECK_MSG(false, "partial-tag mirror overflow: missed eviction");
}

void PartialTagPredictor::on_evict(LineAddr line) {
  ++events_.updates;
  const std::uint16_t p = partial_of(line);
  Slot* s = set_begin(set_of(line));
  // Remove one matching slot.  The evicted line's slot has this partial tag
  // by construction; if several ways share it, removing any one keeps the
  // per-set multiset of partial tags exact.
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (s[w].valid && s[w].partial == p) {
      s[w].valid = false;
      --occupied_;
      return;
    }
  }
  REDHIP_DCHECK(false && "evicted line was not mirrored");
}

}  // namespace redhip
