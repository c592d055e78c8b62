// LlcPredictor — the interface every presence predictor implements.
//
// The simulator asks the predictor one question after each L1 miss: "could
// this line be in the LLC?"  kAbsent answers authorize a bypass straight to
// memory, so every implementation must be *conservative*: it may only answer
// kAbsent when the line is provably not resident (DESIGN.md invariant 1).
// The simulator calls on_fill/on_evict as lines enter and leave the cache
// the predictor covers, and gives it a recalibration opportunity at every
// L1 miss.
#pragma once

#include <cstdint>
#include <string>

#include "cache/tag_array.h"
#include "common/bytestream.h"
#include "common/types.h"
#include "energy/ledger.h"
#include "energy/params.h"

namespace redhip {

enum class Prediction : std::uint8_t { kPresent, kAbsent };

class LlcPredictor {
 public:
  virtual ~LlcPredictor() = default;

  // Presence query for a line address.  Must not mutate prediction state
  // (event counters excepted).
  virtual Prediction query(LineAddr line) = 0;

  // A line was installed into / removed from the covered cache.
  virtual void on_fill(LineAddr line) = 0;
  virtual void on_evict(LineAddr line) = 0;

  // Called once per L1 miss.  Returns the number of stall cycles if a
  // recalibration was performed (0 otherwise).  `covered` is the tag array
  // of the cache this predictor describes.
  virtual Cycles note_l1_miss_and_maybe_recalibrate(const TagArray& covered) {
    (void)covered;
    return 0;
  }

  // Query cost; the simulator adds this to the access latency and the
  // ledger prices the lookup events.
  virtual Cycles lookup_delay() const = 0;

  virtual std::string name() const = 0;

  // Event counters for the ledger.  Mutable access so the simulator can fold
  // per-scheme bookkeeping (e.g. false-positive classification) in.
  PredictorEvents& events() { return events_; }
  const PredictorEvents& events() const { return events_; }

  // Checkpoint/restore (common/bytestream.h codec).  The base serializes
  // the event counters; stateful implementations call the base then append
  // their structures, and must read back exactly what they wrote.
  // ckpt_load returns false on any structural mismatch (the payload was
  // written by a differently-configured predictor).
  virtual void ckpt_save(ByteWriter& w) const { w.put(events_); }
  virtual bool ckpt_load(ByteReader& r) {
    r.get(events_);
    return r.ok();
  }

 protected:
  PredictorEvents events_;
};

}  // namespace redhip
