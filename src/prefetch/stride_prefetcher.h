// StridePrefetcher — the paper's hardware data prefetcher (Fu, Patel,
// Janssens, MICRO'92 [8]): a PC-indexed reference prediction table with a
// two-bit confidence state machine per entry.
//
// The paper sizes the table "large enough so that its accuracy is comparable
// with the best prefetching techniques"; the default here is 4K entries.
// The prefetcher observes demand accesses, learns per-PC strides, and once
// an entry is confirmed emits up to `degree` prefetch line addresses ahead
// of the access.  What happens to those addresses (probing the hierarchy,
// filling, polluting) is the simulator's business.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/bitops.h"
#include "common/bytestream.h"
#include "common/check.h"
#include "common/types.h"
#include "energy/ledger.h"

namespace redhip {

struct StridePrefetcherConfig {
  std::uint32_t index_bits = 12;  // 2^12 = 4K table entries
  std::uint32_t degree = 2;       // prefetches emitted per confirmed access
  std::uint32_t distance = 1;     // how many strides ahead the first one is

  std::uint64_t entries() const { return std::uint64_t{1} << index_bits; }
  void validate() const {
    REDHIP_CHECK_MSG(index_bits >= 4 && index_bits <= 24,
                     "prefetch table index bits out of range");
    REDHIP_CHECK_MSG(degree >= 1 && degree <= 16, "degree out of range");
    REDHIP_CHECK_MSG(distance >= 1, "distance must be >= 1");
  }
};

class StridePrefetcher {
 public:
  // `line_shift` is log2 of the machine's line size: the emitted line
  // addresses must name the lines the caches hold.
  explicit StridePrefetcher(const StridePrefetcherConfig& config,
                            std::uint32_t line_shift = kDefaultLineShift);

  // Observe a demand access (pc, byte address).  Appends predicted *line*
  // addresses to `out` (it is not cleared).  Entry states follow the classic
  // RPT: initial -> (stride match) transient -> steady; a steady entry that
  // mispredicts degrades rather than resetting, giving hysteresis.
  void observe(std::uint32_t pc, Addr addr, std::vector<LineAddr>& out);

  PrefetchEvents& events() { return events_; }
  const PrefetchEvents& events() const { return events_; }
  const StridePrefetcherConfig& config() const { return config_; }

  // Introspection for tests.
  enum class State : std::uint8_t { kInitial, kTransient, kSteady };
  friend constexpr State last_enumerator(State) { return State::kSteady; }
  State state_of(std::uint32_t pc) const;
  std::int64_t stride_of(std::uint32_t pc) const;

  // Checkpoint/restore: the reference prediction table plus the event
  // counters are the prefetcher's complete state.
  void ckpt_save(ByteWriter& w) const {
    w.put(table_);
    w.put(events_);
  }
  bool ckpt_load(ByteReader& r) {
    if (r.u64() != table_.size()) return false;
    for (Entry& e : table_) r.get(e);
    r.get(events_);
    return r.ok();
  }

 private:
  struct Entry {
    std::uint32_t tag = 0;
    bool valid = false;
    State state = State::kInitial;
    Addr last_addr = 0;
    std::int64_t stride = 0;

    template <class S>
    static auto fields(S& s) {
      return std::tie(s.tag, s.valid, s.state, s.last_addr, s.stride);
    }
  };

  std::uint64_t index_of(std::uint32_t pc) const {
    return pc & (config_.entries() - 1);
  }

  StridePrefetcherConfig config_;
  std::uint32_t line_shift_;
  std::vector<Entry> table_;
  PrefetchEvents events_;
};

}  // namespace redhip
