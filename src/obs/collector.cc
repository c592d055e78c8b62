#include "obs/collector.h"

#include "common/check.h"

namespace redhip {

ObsCollector::ObsCollector(const ObsConfig& config, std::uint32_t cores,
                           bool faults_enabled)
    : config_(config), faults_enabled_(faults_enabled), metrics_(cores) {
  config_.validate();
  if (!config_.trace_path.empty()) {
    sink_ = std::make_unique<FileEventSink>(config_.trace_path);
  }
  timing_.collected = config_.timing;
}

void ObsCollector::close_epoch(std::uint64_t now, const ObsSnapshot& snap) {
  EpochSample s;
  s.index = epochs_.size();
  s.end_ref = total_refs_;
  s.end_cycles = now;
  s.refs = epoch_refs_;
  s.l1_accesses = snap.l1_accesses - prev_.l1_accesses;
  s.l1_misses = snap.l1_misses - prev_.l1_misses;
  s.lookups = snap.lookups - prev_.lookups;
  s.predicted_absent = snap.predicted_absent - prev_.predicted_absent;
  s.predicted_present = snap.predicted_present - prev_.predicted_present;
  s.tp = snap.true_positives - prev_.true_positives;
  s.fp = snap.false_positives - prev_.false_positives;
  // A predicted-absent decision either bypassed correctly (true negative)
  // or was caught by the auditor hiding a resident line (false negative —
  // possible only under injected faults, and corrected on the spot).
  s.fn = snap.invariant_violations - prev_.invariant_violations;
  s.tn = s.predicted_absent - s.fn;
  s.recalibrations = snap.recalibrations - prev_.recalibrations;
  s.pt_occupancy = snap.pt_occupancy;
  s.predictor_active = snap.predictor_active;
  if (!faults_enabled_) {
    // The paper's structural guarantee, enforced per epoch: a conservative
    // presence table can never produce a false negative without corruption.
    REDHIP_CHECK_MSG(s.fn == 0,
                     "per-epoch false negatives with fault injection off");
  }
  epochs_.push_back(s);
  emit_epoch(s);

  prev_ = snap;
  epoch_refs_ = 0;
  epoch_start_cycles_ = now;
}

void ObsCollector::finish(std::uint64_t now, const ObsSnapshot& snap) {
  if (epoch_refs_ > 0) close_epoch(now, snap);
  if (sink_) {
    EventWriter w("run_end");
    w.field("ref", total_refs_)
        .field("cycles", now)
        .field("epochs", static_cast<std::uint64_t>(epochs_.size()))
        .field("recoveries", metrics_.total(ObsCounter::kRecoveries))
        .field("disable_flips", metrics_.total(ObsCounter::kDisableFlips));
    // Power-of-two access-latency histogram (per-reference latencies are
    // simulated state, so the histogram is deterministic).
    // Trailing empty buckets are trimmed to keep the line short.
    auto h = metrics_.latency_histogram();
    while (!h.empty() && h.back() == 0) h.pop_back();
    w.array("latency_pow2", h);
    w.emit(*sink_);
    sink_->flush();
  }
}

void ObsCollector::emit_epoch(const EpochSample& s) {
  if (!sink_) return;
  EventWriter w("epoch");
  w.field("index", s.index)
      .field("end_ref", s.end_ref)
      .field("end_cycles", s.end_cycles)
      .field("refs", s.refs)
      .field("l1_accesses", s.l1_accesses)
      .field("l1_misses", s.l1_misses)
      .field("lookups", s.lookups)
      .field("predicted_absent", s.predicted_absent)
      .field("predicted_present", s.predicted_present)
      .field("tp", s.tp)
      .field("fp", s.fp)
      .field("tn", s.tn)
      .field("fn", s.fn)
      .field("recals", s.recalibrations)
      .field("pt_occupancy", s.pt_occupancy)
      .field("active", s.predictor_active);
  w.emit(*sink_);
}

void ObsCollector::emit_run_begin(const ObsRunInfo& info) {
  // A resumed run's replayed trace prefix already contains the run_begin
  // line; emitting a second one would break byte-identity with an
  // uninterrupted run.
  if (!sink_ || resumed_) return;
  EventWriter w("run_begin");
  w.field("cores", static_cast<std::uint64_t>(info.cores))
      .field("scheme", info.scheme)
      .field("inclusion", info.inclusion)
      .field("refs_per_core", info.refs_per_core)
      .field("seed", info.seed)
      .field("prefetch_degree", static_cast<std::uint64_t>(info.prefetch_degree))
      .field("recal_interval", info.recal_interval)
      .field("recal_mode", info.recal_mode)
      .field("faults", info.faults_enabled)
      .field("epoch_refs", config_.epoch_refs)
      .field("epoch_cycles", config_.epoch_cycles);
  w.emit(*sink_);
}

void ObsCollector::emit_sample_window(std::uint64_t index,
                                      std::uint64_t start_refs,
                                      std::uint64_t refs,
                                      std::uint64_t core_cycles,
                                      std::uint64_t l1_accesses,
                                      std::uint64_t l1_hits, double energy_j) {
  if (!sink_) return;
  EventWriter w("sample_window");
  w.field("index", index)
      .field("start_ref", start_refs)
      .field("refs", refs)
      .field("core_cycles", core_cycles)
      .field("l1_accesses", l1_accesses)
      .field("l1_hits", l1_hits)
      .field("energy_j", energy_j);
  w.emit(*sink_);
}

void ObsCollector::emit_auto_disable(bool active,
                                     std::uint64_t backoff_epochs) {
  metrics_.add(0, ObsCounter::kDisableFlips);
  if (!sink_) return;
  EventWriter w("auto_disable");
  w.field("ref", total_refs_)
      .field("active", active)
      .field("backoff_epochs", backoff_epochs);
  w.emit(*sink_);
}

void ObsCollector::emit_recovery(const std::string& policy,
                                 std::uint64_t stall_cycles,
                                 std::uint64_t violations) {
  metrics_.add(0, ObsCounter::kRecoveries);
  if (!sink_) return;
  EventWriter w("recovery");
  w.field("ref", total_refs_)
      .field("policy", policy)
      .field("stall", stall_cycles)
      .field("violations", violations);
  w.emit(*sink_);
}

void ObsCollector::on_recal_begin(std::uint64_t bits_before) {
  if (config_.timing) recal_start_ = std::chrono::steady_clock::now();
  if (!sink_) return;
  EventWriter w("recal_start");
  w.field("ref", total_refs_).field("occupancy_before", bits_before);
  w.emit(*sink_);
}

void ObsCollector::on_recal_end(std::uint64_t bits_after,
                                std::uint64_t stall_cycles) {
  if (config_.timing) {
    timing_.recal_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      recal_start_)
            .count();
    ++timing_.recal_timings;
  }
  if (!sink_) return;
  EventWriter w("recal_end");
  w.field("ref", total_refs_)
      .field("occupancy_after", bits_after)
      .field("stall", stall_cycles);
  w.emit(*sink_);
}

void ObsCollector::on_rolling_pass(std::uint64_t bits_set) {
  if (!sink_) return;
  EventWriter w("recal_pass");
  w.field("ref", total_refs_).field("pt_occupancy", bits_set);
  w.emit(*sink_);
}

void ObsCollector::ckpt_enable_capture() {
  if (capture_ != nullptr) return;
  auto capture = std::make_unique<CaptureEventSink>(std::move(sink_));
  capture_ = capture.get();
  sink_ = std::move(capture);
}

void ObsCollector::ckpt_save(ByteWriter& w) const {
  w.u64(total_refs_);
  w.u64(epoch_refs_);
  w.u64(epoch_start_cycles_);
  w.put(prev_);
  w.put(epochs_);
  metrics_.ckpt_save(w);
  w.str(capture_ != nullptr ? capture_->captured() : std::string());
}

bool ObsCollector::ckpt_load(ByteReader& r) {
  total_refs_ = r.u64();
  epoch_refs_ = r.u64();
  epoch_start_cycles_ = r.u64();
  r.get(prev_);
  r.get(epochs_);
  if (!metrics_.ckpt_load(r)) return false;
  std::string prefix = r.str();
  if (!r.ok()) return false;
  if (capture_ != nullptr) {
    capture_->replay(std::move(prefix));
  }
  resumed_ = true;
  return true;
}

}  // namespace redhip
