#include "predict/counting_bloom.h"

#include <bit>

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

CbfConfig CbfConfig::for_area_budget(std::uint64_t budget_bytes,
                                     std::uint32_t counter_bits) {
  CbfConfig c;
  c.counter_bits = counter_bits;
  const std::uint64_t budget_bits = budget_bytes * 8;
  std::uint32_t bits = 6;
  while ((std::uint64_t{1} << (bits + 1)) * counter_bits <= budget_bits) {
    ++bits;
  }
  c.index_bits = bits;
  c.validate();
  return c;
}

void CbfConfig::validate() const {
  REDHIP_CHECK_MSG(index_bits >= 1 && index_bits <= 32,
                   "CBF index bits out of range");
  REDHIP_CHECK_MSG(counter_bits >= 1 && counter_bits <= 8,
                   "CBF counter bits out of range");
}

CountingBloomFilter::CountingBloomFilter(const CbfConfig& config)
    : config_(config) {
  config_.validate();
  max_count_ = static_cast<std::uint8_t>((1u << config_.counter_bits) - 1);
  index_mask_ = low_mask(config_.index_bits);
  counters_.assign(config_.entries(), 0);
  disabled_.assign((config_.entries() + 63) / 64, 0);
}

bool CountingBloomFilter::disabled(std::uint64_t index) const {
  return (disabled_[index >> 6] >> (index & 63)) & 1u;
}

Prediction CountingBloomFilter::query(LineAddr line) {
  ++events_.lookups;
  const std::uint64_t i = index_of(line);
  // A disabled counter sticks at max, so counter > 0 covers both cases.
  return counters_[i] > 0 ? Prediction::kPresent : Prediction::kAbsent;
}

void CountingBloomFilter::on_fill(LineAddr line) {
  ++events_.updates;
  const std::uint64_t i = index_of(line);
  if (disabled(i)) return;
  if (counters_[i] == max_count_) {
    // Overflow: one more increment would exceed capacity, so the count can
    // no longer be exact; freeze at "present" (Ghosh et al.'s disable rule).
    disabled_[i >> 6] |= std::uint64_t{1} << (i & 63);
    return;
  }
  ++counters_[i];
}

void CountingBloomFilter::on_evict(LineAddr line) {
  ++events_.updates;
  const std::uint64_t i = index_of(line);
  if (disabled(i)) return;
  REDHIP_DCHECK(counters_[i] > 0);
  if (counters_[i] > 0) --counters_[i];
}

bool CountingBloomFilter::state_ok() const {
  std::uint64_t disabled_entries = 0;
  for (std::uint64_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] > max_count_) return false;
    if (disabled(i)) {
      if (counters_[i] != max_count_) return false;
      ++disabled_entries;
    }
  }
  return disabled_entries == disabled_count();
}

std::uint64_t CountingBloomFilter::disabled_count() const {
  std::uint64_t n = 0;
  for (std::uint64_t w : disabled_) {
    n += static_cast<std::uint64_t>(std::popcount(w));
  }
  return n;
}

}  // namespace redhip
