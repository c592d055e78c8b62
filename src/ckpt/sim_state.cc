// MulticoreSimulator checkpoint payload codec.
//
// Defined here — in the subsystem that owns the on-disk format — rather
// than in simulator.cc: they are member functions (declared in
// sim/simulator.h) so the codec reaches private state, but the simulator
// itself never calls them, so src/sim stays independent of src/ckpt.
//
// The payload captures everything a run needs to continue bit-identically
// from a safe boundary: per-core micro-state, every statistics counter,
// all tag arrays (replacement state included), predictor tables,
// prefetcher tables, the fault
// injector's RNG cursors, the observability accumulators including the
// emitted JSONL prefix, and each core's trace position: its generator
// state plus the unconsumed tail of its refill buffer (schema v4), so
// restore repositions every state-capturing source in O(state) and no
// core replays skip(refs_done).  Only a source without state capture (a
// trace file) still takes the replay path.  Deliberately absent, because
// it is regenerable or derived: the buffer's line addresses (recomputed
// from the tail), the L1 MRU memo (schema v5: a restore starts it empty),
// the scheduler tree, the energy breakdown (finalize_result reprices from
// counters), and host-side timings.  Layout changes must bump
// kCkptSchemaVersion (checkpoint_io.h).
#include <cstddef>
#include <cstdint>
#include <tuple>

#include "common/bytestream.h"
#include "sim/simulator.h"

namespace redhip {

namespace {

// Refill-buffer entries are stored as the source produced them (MemRef's
// field list): fault injection perturbs a copy at consume time, never the
// buffer.  Every field is a fixed-width scalar put() writes at its own
// width, so an entry's size is the sum over the list.
constexpr std::size_t kMemRefBytes = [] {
  MemRef m;
  return std::apply([](const auto&... f) { return (sizeof(f) + ...); },
                    MemRef::fields(m));
}();

}  // namespace

std::size_t MulticoreSimulator::ckpt_size_hint() const {
  // The tag arrays and the LLC directory are the bulk of a payload; the
  // slack covers the counters, predictor and prefetch tables at the scales
  // the figures run, and the stored refill-buffer tails.
  std::size_t bytes = shared_->geometry().lines() * sizeof(std::uint64_t);
  for (const TagArray& a : private_) {
    bytes += a.geometry().lines() * sizeof(std::uint64_t);
  }
  return bytes + llc_dir_.size() + config_.cores * kRefillBatch * kMemRefBytes +
         (std::size_t{1} << 17);
}

void MulticoreSimulator::ckpt_serialize(ByteWriter& w) const {
  // Structural echo, validated on restore before anything is applied.
  w.u32(config_.cores);
  w.u32(config_.num_levels());

  for (const CoreState& cs : cores_) {
    w.u64(cs.refs_done);
    w.u64(cs.clock);
    w.u32(static_cast<std::uint32_t>(cs.cpi.remainder_centi()));
    w.boolean(cs.exhausted);
    // Generator state: lets restore reposition the trace in O(state)
    // instead of replaying skip(refs_done) from the origin — at deep
    // positions that replay costs seconds, which is exactly the prefix a
    // shared warm-state snapshot exists to avoid re-paying.  A core saved
    // mid-batch has a generator already past its unconsumed buffer, so the
    // tail goes with the state (schema v4): the restored core consumes the
    // same references and refills at the same positions as the
    // uninterrupted run.
    ByteWriter tw;
    const bool trace_state = cs.trace->ckpt_save_state(tw);
    w.boolean(trace_state);
    if (trace_state) {
      w.u64(tw.buffer().size());
      w.bytes(tw.buffer().data(), tw.buffer().size());
      w.u32(cs.buf_len - cs.buf_pos);
      for (std::uint32_t i = cs.buf_pos; i < cs.buf_len; ++i) {
        w.put(cs.buf[i]);
      }
    }
  }

  w.u64(global_stall_cycles_);
  w.u64(recal_stall_cycles_);
  w.u64(memory_accesses_);
  w.u64(demand_memory_accesses_);
  w.u64(memory_writebacks_);
  for (const LevelEvents& ev : events_) w.put(ev);
  w.put(prefetch_events_);
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
  // rank in the top nibble (derived from the set's recency word as it is
  // written).  The SoA partial-tag lanes and the recency words are rebuilt
  // by TagArray::ckpt_load, so the checkpoint format does not depend on the
  // in-memory layout.
  for (const TagArray& a : private_) a.ckpt_save(w);
  shared_->ckpt_save(w);

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
  if (injector_ != nullptr) w.put(*injector_);

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
  w.put(sample_win_start_);
  w.put(sample_windows_);
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
    // The L1 memo is derived state, not stored; an empty memo is always
    // sound.
    cs.l1_memo = empty_l1_memo();
    cs.l1_memo_dirty = 0;
    cs.exhausted = r.boolean();
    if (!r.ok()) return false;
    cs.buf_pos = 0;
    cs.buf_len = 0;
    if (r.boolean()) {
      // Serialized generator state: reposition the (fresh) trace source in
      // O(state).  The blob is length-prefixed and decoded through its own
      // reader so a malformed trace section cannot silently desynchronize
      // the fields that follow it.
      const std::uint64_t blob_len = r.u64();
      if (!r.ok() || blob_len == 0 || blob_len > kMaxVectorLen) return false;
      const std::uint8_t* blob = r.take(blob_len);
      if (blob == nullptr) return false;
      ByteReader tr(blob, static_cast<std::size_t>(blob_len));
      if (!cs.trace->ckpt_load_state(tr) || !tr.ok()) return false;
      // The unconsumed refill-buffer tail, and its line addresses.
      const std::uint32_t tail = r.u32();
      if (!r.ok() || tail > kRefillBatch) return false;
      for (std::uint32_t i = 0; i < tail; ++i) {
        r.get(cs.buf[i]);
        cs.lines[i] = cs.buf[i].addr >> l1_shift_;
      }
      cs.buf_len = tail;
    } else {
      // A source without state capture (a trace file): fast-forward past
      // the consumed references.  Its refill buffer was not stored; the
      // unconsumed references regenerate from the new position.
      cs.trace->skip(cs.refs_done);
    }
  }

  global_stall_cycles_ = r.u64();
  recal_stall_cycles_ = r.u64();
  memory_accesses_ = r.u64();
  demand_memory_accesses_ = r.u64();
  memory_writebacks_ = r.u64();
  for (LevelEvents& ev : events_) r.get(ev);
  r.get(prefetch_events_);
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
    if (!a.ckpt_load(r)) return false;
  }
  if (!shared_->ckpt_load(r)) return false;

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
    r.get(*injector_);
    if (!r.ok()) return false;
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
  r.get(sample_win_start_);
  r.get(sample_windows_);

  if (!r.ok()) return false;
  // Checkpoint accounting resumes from the restored position: the state
  // just came *from* disk, so nothing is due until another interval
  // elapses, and a one-shot point already passed is not saved again.
  ckpt_last_save_refs_ = ckpt_refs_done();
  return true;
}

}  // namespace redhip
