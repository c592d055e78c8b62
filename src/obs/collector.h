// ObsCollector — the run-time core of the observability layer.
//
// One collector per simulator run (null pointer when [obs] is disabled, so
// the disabled cost is a single predicted branch per reference).  It owns
// the per-core MetricsRegistry, the epoch accumulator, the optional JSONL
// event sink, and the host-side phase timings; it implements RecalObserver
// so RedhipTable rebuilds land in the trace.
//
// Determinism contract: every event field and every EpochSample field is
// derived from simulated state (counters, simulated cycles, table
// occupancy), never from host state, so every run of the same (config,
// seed) — restored from a checkpoint or not — produces a byte-identical
// trace and an identical epoch series.  Host wall time is collected
// separately in ObsTiming.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "common/bytestream.h"
#include "obs/epoch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/timing.h"
#include "predict/recal_observer.h"

namespace redhip {

// Counter snapshot the simulator hands over at each epoch boundary; the
// collector differences consecutive snapshots into one EpochSample.
struct ObsSnapshot {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t lookups = 0;
  std::uint64_t predicted_absent = 0;
  std::uint64_t predicted_present = 0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t recalibrations = 0;
  // Audit-detected bypass violations: each one is a false negative the
  // auditor corrected.  Structurally zero unless faults are injected.
  std::uint64_t invariant_violations = 0;
  std::uint64_t pt_occupancy = 0;  // RedhipTable::bits_set(), 0 otherwise
  bool predictor_active = true;

  // Serialized fields in on-disk order (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.l1_accesses, s.l1_misses, s.lookups, s.predicted_absent,
                    s.predicted_present, s.true_positives, s.false_positives,
                    s.recalibrations, s.invariant_violations, s.pt_occupancy,
                    s.predictor_active);
  }
};

// Static facts about the run, emitted once as the run_begin event.  All
// config-derived.
struct ObsRunInfo {
  std::uint32_t cores = 0;
  std::string scheme;
  std::string inclusion;
  std::uint64_t refs_per_core = 0;
  std::uint64_t seed = 0;
  // Paper's prefetcher has a fixed degree; the schema still carries it so a
  // future adaptive prefetcher can emit degree-change events (the reserved
  // `prefetch_degree` event type, see DESIGN.md).
  std::uint32_t prefetch_degree = 0;
  std::uint64_t recal_interval = 0;
  std::string recal_mode;
  bool faults_enabled = false;
};

class ObsCollector final : public RecalObserver {
 public:
  // Opens the trace sink when `config.trace_path` is set; throws on an
  // unwritable path (a run asked to trace must not silently not trace).
  ObsCollector(const ObsConfig& config, std::uint32_t cores,
               bool faults_enabled);
  ObsCollector(const ObsCollector&) = delete;
  ObsCollector& operator=(const ObsCollector&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  bool timing_enabled() const { return config_.timing; }
  // Accumulator handles for ScopedTimer; null when timing is off.
  double* run_timer() { return config_.timing ? &timing_.run_seconds : nullptr; }

  // --- Hot path --------------------------------------------------------------
  // Account one executed reference; returns true when the epoch boundary
  // was crossed and the caller must snapshot + close_epoch.  `now` is the
  // executing core's clock including the global stall offset.
  bool note_ref(std::uint32_t core, std::uint64_t latency, std::uint64_t now) {
    metrics_.add(core, ObsCounter::kRefs);
    metrics_.record_latency(core, latency);
    ++total_refs_;
    ++epoch_refs_;
    if (config_.epoch_cycles > 0) {
      return now >= epoch_start_cycles_ + config_.epoch_cycles;
    }
    return epoch_refs_ >= config_.epoch_refs;
  }

  // --- Epochs ----------------------------------------------------------------
  // Close the current epoch at simulated time `now`.  Asserts the epoch's
  // false-negative count is zero when faults are off (the paper's
  // invariant, checked per window rather than only at end of run).
  void close_epoch(std::uint64_t now, const ObsSnapshot& snap);
  // End of run: close the final partial epoch (if any references landed in
  // it) and emit run_end.
  void finish(std::uint64_t now, const ObsSnapshot& snap);

  // --- Events ----------------------------------------------------------------
  // The run's first line.  After a restore, the checkpoint's trace prefix
  // follows it, less the prefix's own run_begin line: that one describes
  // the run that wrote the checkpoint, which may have had another length.
  void emit_run_begin(const ObsRunInfo& info);
  // One closed statistical-sampling measurement window (scalar args keep
  // obs free of a dependency on sim/sampling.h).  All values are simulated
  // state, so sampled traces stay deterministic.
  void emit_sample_window(std::uint64_t index, std::uint64_t start_refs,
                          std::uint64_t refs, std::uint64_t core_cycles,
                          std::uint64_t l1_accesses, std::uint64_t l1_hits,
                          double energy_j);
  void emit_auto_disable(bool active, std::uint64_t backoff_epochs);
  void emit_recovery(const std::string& policy, std::uint64_t stall_cycles,
                     std::uint64_t violations);

  // RecalObserver: RedhipTable rebuild bracket + rolling pass marker.  The
  // begin/end pair also measures the host time of the rebuild (into
  // ObsTiming, never into the trace).
  void on_recal_begin(std::uint64_t bits_before) override;
  void on_recal_end(std::uint64_t bits_after,
                    std::uint64_t stall_cycles) override;
  void on_rolling_pass(std::uint64_t bits_set) override;

  // --- Results ---------------------------------------------------------------
  const EpochSeries& epochs() const { return epochs_; }
  const ObsTiming& timing() const { return timing_; }

  // --- Checkpoint ------------------------------------------------------------
  // Wrap the sink so every emitted line is also kept in memory.  Must run
  // before run() emits its first event (the simulator calls it when
  // checkpoint control is attached); the captured prefix goes into each
  // checkpoint so a restored run's trace is byte-identical.
  void ckpt_enable_capture();
  // Serialize / restore the epoch accumulator, metrics, emitted-trace
  // prefix, and epoch series.  Host-side timing is deliberately excluded
  // (wall time is a property of the host, not of the run).  ckpt_load
  // writes nothing: it keeps the prefix for emit_run_begin, so a load
  // that later fails, or a simulator discarded after it, leaves no bytes
  // in the trace file.  A prefix that does not open with run_begin fails
  // the load.
  void ckpt_save(ByteWriter& w) const;
  bool ckpt_load(ByteReader& r);
  // The saved state before the trace prefix, in on-disk order
  // (common/bytestream.h).
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.total_refs_, s.epoch_refs_, s.epoch_start_cycles_,
                    s.prev_, s.epochs_, s.metrics_);
  }

 private:
  void emit_epoch(const EpochSample& s);

  ObsConfig config_;
  bool faults_enabled_;
  MetricsRegistry metrics_;
  std::unique_ptr<EventSink> sink_;  // null: epochs only, no trace
  CaptureEventSink* capture_ = nullptr;  // sink_ downcast when capturing
  std::string restored_prefix_;  // trace a checkpoint carried, not yet written

  // Epoch accumulator.
  std::uint64_t total_refs_ = 0;
  std::uint64_t epoch_refs_ = 0;
  std::uint64_t epoch_start_cycles_ = 0;
  ObsSnapshot prev_;  // counters at the previous boundary
  EpochSeries epochs_;

  ObsTiming timing_;
  std::chrono::steady_clock::time_point recal_start_{};
};

}  // namespace redhip
