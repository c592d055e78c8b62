#include "predict/redhip_table.h"

#include <algorithm>
#include <bit>

#include "common/bitops.h"
#include "common/check.h"

namespace redhip {

std::string to_string(RecalMode m) {
  return m == RecalMode::kBatch ? "batch" : "rolling";
}

std::uint32_t RedhipConfig::index_bits() const { return log2_exact(table_bits); }

void RedhipConfig::validate() const {
  REDHIP_CHECK_MSG(is_pow2(table_bits), "PT size must be a power of two");
  REDHIP_CHECK_MSG(table_bits >= 64, "PT must hold at least one 64-bit line");
  REDHIP_CHECK_MSG(is_pow2(banks) && banks >= 1, "PT banks must be a power of two");
}

RedhipTable::RedhipTable(const RedhipConfig& config) : config_(config) {
  config_.validate();
  index_mask_ = config_.table_bits - 1;
  words_.assign(config_.table_bits / 64, 0);
}

Prediction RedhipTable::query(LineAddr line) {
  ++events_.lookups;
  return test_bit(index_of(line)) ? Prediction::kPresent : Prediction::kAbsent;
}

void RedhipTable::on_fill(LineAddr line) {
  ++events_.updates;
  set_bit(index_of(line));
}

void RedhipTable::on_evict(LineAddr line) {
  // A 1-bit map cannot express removal; staleness is repaired by the next
  // recalibration.  This asymmetry is the paper's central design decision.
  //
  // The one exception is interval == 1 (perfect recalibration): the table
  // is defined to always equal the exact LLC decode, which is maintained
  // here by rebuilding the evicted line's set — identical contents to a
  // full rebuild after every miss, without the O(sets) simulation cost.
  if (config_.recal_interval_l1_misses == 1 && covered_ != nullptr) {
    recalibrate_sets(*covered_, line & (covered_->sets() - 1), 1);
  }
}

Cycles RedhipTable::note_l1_miss_and_maybe_recalibrate(const TagArray& covered) {
  ++l1_misses_;
  const std::uint64_t interval = config_.recal_interval_l1_misses;
  if (interval == 0) return 0;

  if (interval == 1 && covered_ != nullptr) {
    // Perfect recalibration is maintained incrementally in on_evict(); the
    // per-miss table refresh is a single-cycle touch.
    ++events_.recalibrations;
    return 1;
  }

  if (config_.recal_mode == RecalMode::kBatch) {
    if (++misses_since_recal_ < interval) return 0;
    misses_since_recal_ = 0;
    return recalibrate(covered);
  }

  // Rolling: accrue sets-worth of work so the whole table is rebuilt once
  // per interval, a few sets at a time (fixed-point credit, no drift).
  rolling_credit_ += covered.sets();
  std::uint64_t todo = rolling_credit_ / interval;
  rolling_credit_ %= interval;
  if (todo == 0) return 0;
  Cycles stall = 0;
  while (todo > 0) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(todo, covered.sets() - rolling_cursor_);
    stall += recalibrate_sets(covered, rolling_cursor_, chunk);
    rolling_cursor_ += chunk;
    if (rolling_cursor_ == covered.sets()) {
      rolling_cursor_ = 0;
      ++events_.recalibrations;  // one full pass completed
      if (observer_ != nullptr) observer_->on_rolling_pass(bits_set());
    }
    todo -= chunk;
  }
  return stall;
}

Cycles RedhipTable::recalibrate(const TagArray& covered) {
  if (observer_ != nullptr) observer_->on_recal_begin(bits_set());
  ++events_.recalibrations;
  std::fill(words_.begin(), words_.end(), 0);
  const std::uint64_t sets = covered.sets();
  for (std::uint64_t s = 0; s < sets; ++s) {
    covered.visit_valid_in_set(
        s, [&](LineAddr line) { set_bit(index_of(line)); });
  }
  events_.recal_sets_read += sets;
  events_.recal_words_written += words_.size();
  // One cycle recalibrates one set's PT line (decode + hierarchical OR);
  // `banks` sets proceed in parallel.  With the paper's geometry (64Ki sets,
  // 4 banks) this is the quoted 16Ki-cycle stall.
  const Cycles stall = (sets + config_.banks - 1) / config_.banks;
  if (observer_ != nullptr) observer_->on_recal_end(bits_set(), stall);
  return stall;
}

Cycles RedhipTable::recalibrate_sets(const TagArray& covered,
                                     std::uint64_t first_set,
                                     std::uint64_t count) {
  const std::uint64_t sets = covered.sets();
  const std::uint32_t k = covered.geometry().set_bits();
  const std::uint64_t aliases_per_set = config_.table_bits >> k;
  REDHIP_DCHECK(first_set + count <= sets);
  if (recal_filter_ && recal_filter_(first_set, count)) {
    // The update was lost in flight: the stale PT lines stand (conservative
    // — only energy is wasted) but the recalibration hardware still ran.
    return (count + config_.banks - 1) / config_.banks;
  }
  for (std::uint64_t s = first_set; s < first_set + count; ++s) {
    // Clear exactly the PT entries that can hold set-s lines (index = low p
    // bits of the line address, whose low k bits are the set index), then
    // re-set from the resident tags — a per-set exact rebuild.
    for (std::uint64_t m = 0; m < aliases_per_set; ++m) {
      clear_bit((m << k) | s);
    }
    covered.visit_valid_in_set(
        s, [&](LineAddr line) { set_bit(index_of(line)); });
  }
  events_.recal_sets_read += count;
  events_.recal_words_written += count;  // one PT line per set (Fig. 4)
  return (count + config_.banks - 1) / config_.banks;
}

bool RedhipTable::corrupt_clear_bit(std::uint64_t index) {
  index &= index_mask_;
  if (!test_bit(index)) return false;
  clear_bit(index);
  return true;
}

bool RedhipTable::corrupt_set_bit(std::uint64_t index) {
  index &= index_mask_;
  if (test_bit(index)) return false;
  set_bit(index);
  return true;
}

bool RedhipTable::state_ok() const {
  const std::uint64_t wrap =
      std::max<std::uint64_t>(config_.recal_interval_l1_misses, 1);
  const std::uint64_t sets = covered_ != nullptr ? covered_->sets() : 1;
  return misses_since_recal_ < wrap && rolling_credit_ < wrap &&
         rolling_cursor_ < sets;
}

bool RedhipTable::test_bit(std::uint64_t index) const {
  return (words_[index >> 6] >> (index & 63)) & 1u;
}

void RedhipTable::set_bit(std::uint64_t index) {
  words_[index >> 6] |= std::uint64_t{1} << (index & 63);
}

void RedhipTable::clear_bit(std::uint64_t index) {
  words_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
}

std::uint64_t RedhipTable::bits_set() const {
  std::uint64_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

}  // namespace redhip
