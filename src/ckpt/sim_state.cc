// MulticoreSimulator checkpoint payload codec.
//
// Defined here — in the subsystem that owns the on-disk format — rather
// than in simulator.cc: they are member functions (declared in
// sim/simulator.h) so the codec reaches private state, but the simulator
// itself never calls them, so src/sim stays independent of src/ckpt.
//
// The payload captures everything a run needs to continue bit-identically
// from a safe boundary: per-core micro-state, every statistics counter,
// all tag arrays (complete state only for embedded-LRU arrays — gated by
// ckpt_supported()), predictor tables, prefetcher tables, the fault
// injector's RNG cursors, the observability accumulators including the
// emitted JSONL prefix, and (schema v3) each drained core's trace
// generator state so restore repositions the source in O(state) instead of
// replaying skip(refs_done).  Deliberately absent, because it is
// regenerable or derived: refill buffers and pre-generated batches (cores
// saved mid-batch fall back to the re-skip path), the scheduler tree, the
// energy breakdown (finalize_result reprices from counters), and host-side
// timings.  Layout changes must bump kCkptSchemaVersion (checkpoint_io.h).
#include <cstdint>

#include "common/bytestream.h"
#include "sim/simulator.h"

namespace redhip {

namespace {

void save_level_events(ByteWriter& w, const LevelEvents& ev) {
  w.u64(ev.tag_probes);
  w.u64(ev.data_probes);
  w.u64(ev.fills);
  w.u64(ev.invalidations);
  w.u64(ev.writebacks);
  w.u64(ev.accesses);
  w.u64(ev.hits);
  w.u64(ev.misses);
  w.u64(ev.evictions);
  w.u64(ev.skipped);
}

void load_level_events(ByteReader& r, LevelEvents& ev) {
  ev.tag_probes = r.u64();
  ev.data_probes = r.u64();
  ev.fills = r.u64();
  ev.invalidations = r.u64();
  ev.writebacks = r.u64();
  ev.accesses = r.u64();
  ev.hits = r.u64();
  ev.misses = r.u64();
  ev.evictions = r.u64();
  ev.skipped = r.u64();
}

void save_prefetch_events(ByteWriter& w, const PrefetchEvents& ev) {
  w.u64(ev.table_lookups);
  w.u64(ev.issued);
  w.u64(ev.useful);
  w.u64(ev.useless);
  w.u64(ev.redundant);
}

void load_prefetch_events(ByteReader& r, PrefetchEvents& ev) {
  ev.table_lookups = r.u64();
  ev.issued = r.u64();
  ev.useful = r.u64();
  ev.useless = r.u64();
  ev.redundant = r.u64();
}

void save_fault_stats(ByteWriter& w, const FaultStats& s) {
  w.u64(s.pt_bits_cleared);
  w.u64(s.pt_bits_set);
  w.u64(s.recal_chunks_dropped);
  w.u64(s.trace_refs_perturbed);
  w.u64(s.audit_checks);
  w.u64(s.invariant_violations);
  w.u64(s.recovery_recalibrations);
  w.u64(s.recovery_stall_cycles);
}

void load_fault_stats(ByteReader& r, FaultStats& s) {
  s.pt_bits_cleared = r.u64();
  s.pt_bits_set = r.u64();
  s.recal_chunks_dropped = r.u64();
  s.trace_refs_perturbed = r.u64();
  s.audit_checks = r.u64();
  s.invariant_violations = r.u64();
  s.recovery_recalibrations = r.u64();
  s.recovery_stall_cycles = r.u64();
}

void save_sample_snapshot(ByteWriter& w, const SampleSnapshot& s) {
  w.u64(s.refs);
  w.u64(s.core_cycles);
  w.u64(s.max_clock);
  w.u64(s.l1_accesses);
  w.u64(s.l1_hits);
  w.f64(s.energy_j);
}

void load_sample_snapshot(ByteReader& r, SampleSnapshot& s) {
  s.refs = r.u64();
  s.core_cycles = r.u64();
  s.max_clock = r.u64();
  s.l1_accesses = r.u64();
  s.l1_hits = r.u64();
  s.energy_j = r.f64();
}

}  // namespace

bool MulticoreSimulator::ckpt_supported() const {
  // A checkpoint must capture tag-array state completely; packed entries
  // and recency words are the whole state only for embedded-LRU arrays.
  for (const TagArray& a : private_) {
    if (!a.state_is_self_contained()) return false;
  }
  return shared_->state_is_self_contained();
}

void MulticoreSimulator::ckpt_serialize(ByteWriter& w) const {
  // Structural echo, validated on restore before anything is applied.
  w.u32(config_.cores);
  w.u32(config_.num_levels());

  for (const CoreState& cs : cores_) {
    w.u64(cs.refs_done);
    w.u64(cs.clock);
    w.u32(static_cast<std::uint32_t>(cs.cpi.remainder_centi()));
    w.u64(cs.l1_last_line);
    w.boolean(cs.l1_last_dirty);
    w.boolean(cs.exhausted);
    // Generator state (schema v3): lets restore reposition the trace in
    // O(state) instead of replaying skip(refs_done) from the origin — at
    // deep positions that replay costs seconds, which is exactly the prefix
    // a shared warm-state snapshot exists to avoid re-paying.  Serialized
    // only when this core's refill buffer is drained: a mid-batch core's
    // generator has already run past the unconsumed tail, and the tail
    // itself is not stored (the restored core starts with an empty
    // buffer), so such a core keeps the replay path.  Every sampled-run save point (window open) has all
    // buffers drained, so the fast path covers the case that matters.
    ByteWriter tw;
    const bool trace_state =
        cs.buf_pos == cs.buf_len && cs.trace->ckpt_save_state(tw);
    w.boolean(trace_state);
    if (trace_state) {
      w.u64(tw.buffer().size());
      w.bytes(tw.buffer().data(), tw.buffer().size());
    }
  }

  w.u64(global_stall_cycles_);
  w.u64(recal_stall_cycles_);
  w.u64(memory_accesses_);
  w.u64(demand_memory_accesses_);
  w.u64(memory_writebacks_);
  for (const LevelEvents& ev : events_) save_level_events(w, ev);
  save_prefetch_events(w, prefetch_events_);
  w.u64(audit_checks_);
  w.u64(invariant_violations_);
  w.u64(recovery_recals_);
  w.u64(recovery_stall_cycles_);

  w.boolean(predictor_active_);
  w.u64(epoch_refs_seen_);
  w.u64(epoch_start_misses_);
  w.u64(epoch_start_lookups_);
  w.u64(epoch_start_absents_);
  w.u32(disable_backoff_);
  w.u32(disabled_epochs_left_);
  w.u64(predictor_disabled_refs_);
  w.u64(excl_l1_misses_);

  // Only the packed entries are serialized, each carrying its way's LRU
  // rank in the top nibble (ckpt_entries derives it from the set's recency
  // word).  The SoA partial-tag lanes and the recency words are rebuilt by
  // ckpt_restore_entries, so the checkpoint format does not depend on the
  // in-memory layout.
  for (const TagArray& a : private_) w.u64_vec(a.ckpt_entries());
  w.u64_vec(shared_->ckpt_entries());

  w.boolean(llc_dir_on_);
  if (llc_dir_on_) {
    w.u64(llc_dir_.size());
    w.bytes(llc_dir_.data(), llc_dir_.size());
  }

  w.boolean(llc_pred_ != nullptr);
  if (llc_pred_ != nullptr) llc_pred_->ckpt_save(w);
  w.u32(static_cast<std::uint32_t>(excl_pred_.size()));
  for (const auto& row : excl_pred_) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const auto& t : row) t->ckpt_save(w);
  }
  w.boolean(excl_shared_pred_ != nullptr);
  if (excl_shared_pred_ != nullptr) excl_shared_pred_->ckpt_save(w);

  w.u32(static_cast<std::uint32_t>(prefetchers_.size()));
  for (const auto& pf : prefetchers_) pf->ckpt_save(w);

  w.boolean(injector_ != nullptr);
  if (injector_ != nullptr) {
    const FaultInjector::CkptState st = injector_->ckpt_state();
    for (const Xoshiro256::State& s : st.streams) {
      for (std::uint64_t word : s.s) w.u64(word);
    }
    save_fault_stats(w, st.stats);
  }

  w.boolean(obs_ != nullptr);
  if (obs_ != nullptr) obs_->ckpt_save(w);

  // Sampling (schema v2): plan echo plus orchestrator progress.  The echo
  // is validated on restore — a checkpoint taken under one sampling plan
  // must never seed a run configured with a different one (closed windows
  // would be mixed across estimators).
  w.u32(static_cast<std::uint32_t>(sampling_.mode));
  w.u64(sampling_.period_refs);
  w.u64(sampling_.window_refs);
  w.u64(sampling_.warmup_refs);
  w.u64(sample_skipped_refs_);
  w.u64(sample_warmed_refs_);
  w.boolean(sample_win_open_);
  save_sample_snapshot(w, sample_win_start_);
  w.u64(sample_windows_.size());
  for (const WindowSample& ws : sample_windows_) {
    w.u64(ws.index);
    w.u64(ws.start_refs);
    w.u64(ws.refs);
    w.u64(ws.core_cycles);
    w.u64(ws.l1_accesses);
    w.u64(ws.l1_hits);
    w.f64(ws.energy_j);
  }
}

bool MulticoreSimulator::ckpt_restore_payload(ByteReader& r) {
  if (ran_) return false;  // restore applies to a fresh instance only
  if (r.u32() != config_.cores) return false;
  if (r.u32() != config_.num_levels()) return false;

  for (CoreState& cs : cores_) {
    cs.refs_done = r.u64();
    cs.clock = r.u64();
    const std::uint32_t rem = r.u32();
    if (rem >= 100) return false;
    cs.cpi.set_remainder_centi(rem);
    cs.l1_last_line = r.u64();
    cs.l1_last_dirty = r.boolean();
    cs.exhausted = r.boolean();
    if (!r.ok()) return false;
    if (r.boolean()) {
      // Serialized generator state: reposition the (fresh) trace source in
      // O(state).  The blob is length-prefixed and decoded through its own
      // reader so a malformed trace section cannot silently desynchronize
      // the fields that follow it.
      const std::uint64_t blob_len = r.u64();
      if (!r.ok() || blob_len == 0 || blob_len > kMaxVectorLen) return false;
      std::vector<std::uint8_t> blob(blob_len);
      if (!r.raw(blob.data(), blob.size())) return false;
      ByteReader tr(blob.data(), blob.size());
      if (!cs.trace->ckpt_load_state(tr) || !tr.ok()) return false;
    } else {
      // No trace state in the file (source without state capture, or a core
      // saved mid-batch): fast-forward past the consumed references;
      // buffered-but-unconsumed references were never serialized and simply
      // regenerate from here.
      cs.trace->skip(cs.refs_done);
    }
    cs.buf_pos = 0;
    cs.buf_len = 0;
  }

  global_stall_cycles_ = r.u64();
  recal_stall_cycles_ = r.u64();
  memory_accesses_ = r.u64();
  demand_memory_accesses_ = r.u64();
  memory_writebacks_ = r.u64();
  for (LevelEvents& ev : events_) load_level_events(r, ev);
  load_prefetch_events(r, prefetch_events_);
  audit_checks_ = r.u64();
  invariant_violations_ = r.u64();
  recovery_recals_ = r.u64();
  recovery_stall_cycles_ = r.u64();

  predictor_active_ = r.boolean();
  epoch_refs_seen_ = r.u64();
  epoch_start_misses_ = r.u64();
  epoch_start_lookups_ = r.u64();
  epoch_start_absents_ = r.u64();
  disable_backoff_ = r.u32();
  disabled_epochs_left_ = r.u32();
  predictor_disabled_refs_ = r.u64();
  excl_l1_misses_ = r.u64();

  for (TagArray& a : private_) {
    if (!a.ckpt_restore_entries(r.u64_vec())) return false;
  }
  if (!shared_->ckpt_restore_entries(r.u64_vec())) return false;

  if (r.boolean() != llc_dir_on_) return false;
  if (llc_dir_on_) {
    if (r.u64() != llc_dir_.size()) return false;
    if (!r.raw(llc_dir_.data(), llc_dir_.size())) return false;
  }

  if (r.boolean() != (llc_pred_ != nullptr)) return false;
  if (llc_pred_ != nullptr && !llc_pred_->ckpt_load(r)) return false;
  if (r.u32() != excl_pred_.size()) return false;
  for (auto& row : excl_pred_) {
    if (r.u32() != row.size()) return false;
    for (auto& t : row) {
      if (!t->ckpt_load(r)) return false;
    }
  }
  if (r.boolean() != (excl_shared_pred_ != nullptr)) return false;
  if (excl_shared_pred_ != nullptr && !excl_shared_pred_->ckpt_load(r)) {
    return false;
  }

  if (r.u32() != prefetchers_.size()) return false;
  for (auto& pf : prefetchers_) {
    if (!pf->ckpt_load(r)) return false;
  }

  if (r.boolean() != (injector_ != nullptr)) return false;
  if (injector_ != nullptr) {
    FaultInjector::CkptState st;
    for (Xoshiro256::State& s : st.streams) {
      for (std::uint64_t& word : s.s) word = r.u64();
    }
    load_fault_stats(r, st.stats);
    if (!r.ok()) return false;
    injector_->ckpt_restore(st);
  }

  if (r.boolean() != (obs_ != nullptr)) return false;
  if (obs_ != nullptr && !obs_->ckpt_load(r)) return false;

  if (static_cast<SampleMode>(r.u32()) != sampling_.mode) return false;
  if (r.u64() != sampling_.period_refs) return false;
  if (r.u64() != sampling_.window_refs) return false;
  if (r.u64() != sampling_.warmup_refs) return false;
  sample_skipped_refs_ = r.u64();
  sample_warmed_refs_ = r.u64();
  sample_win_open_ = r.boolean();
  load_sample_snapshot(r, sample_win_start_);
  const std::uint64_t nw = r.u64();
  if (!r.ok() || nw > kMaxVectorLen) return false;
  sample_windows_.resize(nw);
  for (WindowSample& ws : sample_windows_) {
    ws.index = r.u64();
    ws.start_refs = r.u64();
    ws.refs = r.u64();
    ws.core_cycles = r.u64();
    ws.l1_accesses = r.u64();
    ws.l1_hits = r.u64();
    ws.energy_j = r.f64();
  }

  if (!r.ok()) return false;
  // Interval accounting resumes from the restored position: the state just
  // came *from* disk, so nothing is due until another interval elapses.
  ckpt_last_save_refs_ = ckpt_refs_done();
  // A restore at or past the one-shot point means that checkpoint (or a
  // later one) already exists — rewriting it would only churn the shared
  // warmup file other sweep cells are reading.
  if (ckpt_ctl_ != nullptr && ckpt_ctl_->save_at_refs > 0 &&
      ckpt_last_save_refs_ >= ckpt_ctl_->save_at_refs) {
    ckpt_save_at_done_ = true;
  }
  return true;
}

}  // namespace redhip
