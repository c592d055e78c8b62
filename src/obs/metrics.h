// MetricsRegistry — per-core counters and histograms for the observability
// layer.
//
// One simulator run is single-threaded, but a run matrix executes many
// simulators concurrently on the thread pool; every simulator owns its own
// registry, and within a registry each core writes only its own
// cache-line-padded slot.  No increment ever contends with another writer,
// which is what "lock-free" means here: plain stores, no atomics, no locks,
// no false sharing between cores of one run.
//
// Counters are identified by a small fixed enum (the hot path indexes an
// array; string lookup happens only at reporting time).  Histograms use
// power-of-two buckets — bucket i counts values v with 2^(i-1) <= v < 2^i
// (bucket 0 counts v == 0) — which is exact enough to see the shape of an
// access-latency distribution at the cost of one bit_width instruction.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.h"

namespace redhip {

enum class ObsCounter : std::uint32_t {
  kRefs = 0,        // demand references executed on this core
  kRefillBatches,   // trace buffer refills (never traced)
  kRecoveries,      // fault-recovery actions taken (counted on core 0)
  kDisableFlips,    // auto-disable state changes (counted on core 0)
  kCount,           // sentinel
};
std::string to_string(ObsCounter c);

class MetricsRegistry {
 public:
  // Power-of-two latency buckets: u64 values never exceed 2^64, so 65
  // buckets (0, then one per bit width) cover every input exactly.
  static constexpr std::uint32_t kHistogramBuckets = 65;

  explicit MetricsRegistry(std::uint32_t cores);

  // --- Hot path ------------------------------------------------------------
  void add(std::uint32_t core, ObsCounter c, std::uint64_t v = 1) {
    slots_[core].counters[static_cast<std::uint32_t>(c)] += v;
  }
  void record_latency(std::uint32_t core, std::uint64_t cycles) {
    ++slots_[core].latency[std::bit_width(cycles)];
  }

  // --- Reporting -----------------------------------------------------------
  std::uint64_t core_total(std::uint32_t core, ObsCounter c) const {
    return slots_[core].counters[static_cast<std::uint32_t>(c)];
  }
  std::uint64_t total(ObsCounter c) const;
  // Latency histogram summed over cores; index = bucket (see above).
  std::vector<std::uint64_t> latency_histogram() const;
  std::uint32_t cores() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  // --- Checkpoint ----------------------------------------------------------
  // The per-core counters and histograms feed the run_end trace event, so
  // they are part of the bit-identity contract and must survive a restore.
  void ckpt_save(ByteWriter& w) const {
    w.u64(slots_.size());
    for (const CoreSlot& s : slots_) {
      for (std::uint64_t c : s.counters) w.u64(c);
      for (std::uint64_t l : s.latency) w.u64(l);
    }
  }
  bool ckpt_load(ByteReader& r) {
    if (r.u64() != slots_.size()) return false;
    for (CoreSlot& s : slots_) {
      for (std::uint64_t& c : s.counters) c = r.u64();
      for (std::uint64_t& l : s.latency) l = r.u64();
    }
    return r.ok();
  }

 private:
  struct alignas(64) CoreSlot {
    std::uint64_t counters[static_cast<std::uint32_t>(ObsCounter::kCount)] = {};
    std::uint64_t latency[kHistogramBuckets] = {};
  };
  std::vector<CoreSlot> slots_;
};

}  // namespace redhip
