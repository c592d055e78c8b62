// The bound-weave parallel engine.
//
// run()/run_reference() interleave every core's references in one global
// (clock, core id) order because the shared levels — LLC, predictor table,
// memory, the energy counters behind them — are one mutable state.  But the
// dominant reference stream never gets past L1: synthetic workloads (like
// the element-granular traces the paper's pintool produced) hit the private
// L1 for the overwhelming majority of references, and an L1 hit touches
// nothing shared except four monotone counters.
//
// This engine exploits that split:
//
//   bound phase   Every core runs on a ThreadPool lane, executing *only*
//                 L1 hits (the same-line memo or a tag-array probe hit)
//                 against its private L1 — which no other core ever fills
//                 or invalidates mid-phase — and logging one entry per
//                 reference.  The lane parks at its first L1 miss (an
//                 "event": everything below L1 is or may become shared
//                 state), at the speculation window cap, or when its
//                 reference quota ends.
//
//   weave phase   The calling thread merges the lanes' logs and parked
//                 events into the exact serial order.  An event executes
//                 only when it precedes every other lane's frontier, and it
//                 replays the *unmodified* serial reference body — access(),
//                 prefetches, auto-disable, observability — so all shared
//                 state evolves in the serial sequence.  Logged L1 hits
//                 commit as counter updates (see ParCommitMode).
//
// Speculation is unsound in exactly one case: an LLC eviction's
// back-invalidation removes a line from core C's L1 *at the event's cycle*,
// but C's lane may already have speculated later references that hit that
// line.  back_invalidate_core() therefore calls par_note_back_invalidate()
// first; on a conflict the lane rewinds — every speculated entry carries an
// undo snapshot of the one L1 set it touched, so rollback restores the tag
// array, clock, CPI remainder, memo and ref count to just before the first
// conflicting reference, and the discarded references re-execute later
// (from a replay queue: the trace source never rewinds).  Entries already
// committed are final by construction: the weave only commits entries that
// precede every executable event.
//
// Determinism does not depend on thread count or scheduling: each lane's
// trajectory is a pure function of its own state, and the weave's decisions
// depend only on lane states at the phase barrier — the tests lock
// bit-identical statistics, reports and event traces against run() for
// every feature mask at 1, 2 and 4 threads.
//
// Two configurations cannot speculate and fall back to a weave-only mode
// that runs the serial reference body on the calling thread while the
// ThreadPool pre-generates each core's 256-ref trace batches double-buffered
// ahead of consumption: fault injection (the injector perturbs references
// in global interleave order from one RNG stream) and L1 replacement
// policies whose state lives outside the packed tag entries (see
// TagArray::state_is_self_contained).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sim/simulator.h"

namespace redhip {

struct MulticoreSimulator::ParLane {
  // Embedded-LRU tag arrays have at most 16 ways (see TagArray); the
  // speculation gate guarantees it, so undo snapshots are fixed-size.
  static constexpr std::uint32_t kMaxWays = 16;

  struct Entry {
    Cycles key;         // core clock before the gap advance (= merge key)
    Cycles post_clock;  // core clock after gap + latency (= obs timestamp)
    Cycles lat;
    MemRef ref;
    // Undo state: everything this reference changed, captured before it ran.
    LineAddr pre_memo_line;
    std::uint64_t set;             // L1 set index (valid when touched_set)
    std::uint8_t pre_rem_centi;    // CPI remainder, always < 100
    bool pre_memo_dirty;
    bool touched_set;              // memo hits without a dirty latch touch none
    std::uint64_t saved[kMaxWays];
  };

  enum class Status : std::uint8_t {
    kRunning,  // will speculate further next bound phase
    kAtEvent,  // parked at an L1 miss; ev_ref/ev_key hold the reference
    kAtCap,    // log hit the window cap; waiting for the weave to commit
    kDone,     // reference quota reached or trace exhausted
  };

  CoreId core = 0;
  Status status = Status::kRunning;
  std::vector<Entry> log;
  std::size_t committed = 0;  // log[0..committed) already folded into stats
  MemRef ev_ref{};
  Cycles ev_key = 0;
  // References discarded by a rollback, re-executed before the lane reads
  // its trace again (sources are forward-only).
  std::deque<MemRef> replay;
};

namespace {

// (cycle, core) lexicographic order — the serial engines' tie-break.
inline bool key_before(Cycles ka, CoreId ca, Cycles kb, CoreId cb) {
  return ka != kb ? ka < kb : ca < cb;
}

}  // namespace

bool MulticoreSimulator::parallel_can_speculate() const {
  // Fault injection consumes one global RNG stream in interleave order; a
  // lane cannot know its references' positions in that order up front.
  if (injector_ != nullptr) return false;
  // Rollback restores an L1 set by copying its packed entries back; that
  // only captures the full state for embedded-LRU arrays.  (The SoA
  // partial-tag lane is derived state — restore_set rebuilds it from the
  // entries, so the undo log never needs to capture it.)  All cores share
  // one L1 geometry, so core 0 answers for everyone.
  if (!private_[0].state_is_self_contained()) return false;
  return true;
}

SimResult MulticoreSimulator::run_parallel(std::uint64_t max_refs_per_core,
                                           const ParallelOptions& opts) {
  REDHIP_CHECK_MSG(!ran_, "a simulator instance runs once");
  ran_ = true;
  obs_begin_run(max_refs_per_core);
  const bool speculate = parallel_can_speculate();
  if (sampling_.enabled()) {
    // Sampled mode: each measurement window is one bounded parallel
    // segment.  Lanes and the worker pool are per-segment locals inside
    // par_run_* (and every segment ends fully quiesced: trace position ==
    // refs_done, replay queues empty), so per-window invocation composes
    // without extra state.
    return run_sampled(max_refs_per_core, [&](std::uint64_t target) {
      if (speculate) {
        par_speculated_ = true;
        par_run_speculative(target, opts);
      } else {
        par_run_weave_only(target, opts);
      }
    });
  }
  {
    // Scoped so run_seconds is accumulated before finalize_result copies
    // the timings into the result.
    ScopedTimer timer(obs_ != nullptr ? obs_->run_timer() : nullptr);
    if (speculate) {
      par_speculated_ = true;
      par_run_speculative(max_refs_per_core, opts);
    } else {
      par_run_weave_only(max_refs_per_core, opts);
    }
  }
  return finalize_result();
}

// ------------------------------------------------------------- bound phase

void MulticoreSimulator::par_lane_step(ParLane& lane,
                                       std::uint64_t max_refs_per_core,
                                       std::uint32_t window_refs) {
  CoreState& cs = cores_[lane.core];
  TagArray& l1 = private_[lane.core];  // level 0, lvl-major layout
  const bool writebacks = config_.model_writebacks;

  while (true) {
    if (lane.log.size() >= window_refs) {
      lane.status = ParLane::Status::kAtCap;
      return;
    }
    if (cs.refs_done >= max_refs_per_core) {
      cs.exhausted = true;
      lane.status = ParLane::Status::kDone;
      return;
    }
    MemRef ref;
    if (!lane.replay.empty()) {
      ref = lane.replay.front();
      lane.replay.pop_front();
    } else {
      if (cs.buf_pos == cs.buf_len) {
        // Identical refill pattern to the fast engine: rollbacks re-execute
        // from `replay` without touching the source, so the sequence of
        // (want, position) refill calls — and the per-core refill metric —
        // is exactly the serial one.
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kRefillBatch,
                                    max_refs_per_core - cs.refs_done));
        cs.buf_len = static_cast<std::uint32_t>(
            cs.trace->next_batch(cs.buf.data(), want));
        cs.buf_pos = 0;
        if (obs_ != nullptr) {
          obs_->metrics().add(lane.core, ObsCounter::kRefillBatches);
        }
        if (cs.buf_len == 0) {
          cs.exhausted = true;
          lane.status = ParLane::Status::kDone;
          return;
        }
      }
      ref = cs.buf[cs.buf_pos++];
    }

    const LineAddr line = ref.addr >> l1_shift_;
    ParLane::Entry e;
    e.key = cs.clock;
    e.lat = l1_hit_latency_;
    e.ref = ref;
    e.pre_memo_line = cs.l1_last_line;
    e.pre_memo_dirty = cs.l1_last_dirty;
    e.pre_rem_centi = static_cast<std::uint8_t>(cs.cpi.remainder_centi());
    e.touched_set = false;
    e.set = 0;

    if (line == cs.l1_last_line) {
      // Same-line memo hit — like the serial fast path, no tag scan and no
      // LRU touch; only a first write latches the dirty bit.
      if (ref.is_write && writebacks && !cs.l1_last_dirty) {
        e.set = l1.set_of(line);
        l1.save_set(e.set, e.saved);
        e.touched_set = true;
        l1.mark_dirty(line);
        cs.l1_last_dirty = true;
      }
    } else {
      const std::uint64_t set = l1.set_of(line);
      // Snapshot before the probe: a hit mutates rank nibbles, the dirty
      // bit, and (in principle) the prefetched bit of this one set.
      l1.save_set(set, e.saved);
      const TagArray::LookupResult r =
          l1.lookup(line, ref.is_write && writebacks);
      if (!r.hit) {
        // Event: everything below L1 is shared.  A missed lookup mutates
        // nothing, so there is nothing to undo; park and let the weave run
        // the full serial reference body at the right global position.
        lane.ev_ref = ref;
        lane.ev_key = cs.clock;
        lane.status = ParLane::Status::kAtEvent;
        return;
      }
      // L1 only ever receives demand fills, so a hit never clears a
      // prefetched mark (the serial memo path relies on the same fact).
      REDHIP_DCHECK(!r.was_prefetched);
      e.set = set;
      e.touched_set = true;
      cs.l1_last_line = line;
      cs.l1_last_dirty = false;
    }

    cs.clock += cs.cpi.advance(ref.gap);
    cs.clock += e.lat;
    e.post_clock = cs.clock;
    ++cs.refs_done;
    lane.log.push_back(e);
  }
}

// ------------------------------------------------------------- weave phase

void MulticoreSimulator::par_commit_until(Cycles key, CoreId core,
                                          ParCommitMode mode) {
  std::vector<ParLane>& lanes = *par_lanes_;
  // An entry commits when it precedes the event at (key, core): strictly
  // earlier cycle, or same-cycle lower core id — and same-cycle *same* core,
  // because a lane's own logged entries precede its parked event in program
  // order.
  const auto within = [&](CoreId lane_core, const ParLane::Entry& e) {
    return e.key < key || (e.key == key && lane_core <= core);
  };

  if (mode == ParCommitMode::kOrdered) {
    // Full merge: observability needs every reference's latency and
    // timestamp in exact serial order.
    const bool auto_dis =
        config_.auto_disable.enabled && llc_pred_ != nullptr;
    while (true) {
      ParLane* best = nullptr;
      for (ParLane& ln : lanes) {
        if (ln.committed >= ln.log.size()) continue;
        const ParLane::Entry& e = ln.log[ln.committed];
        if (!within(ln.core, e)) continue;
        if (best == nullptr ||
            key_before(e.key, ln.core, best->log[best->committed].key,
                       best->core)) {
          best = &ln;
        }
      }
      if (best == nullptr) break;
      const ParLane::Entry& e = best->log[best->committed++];
      LevelEvents& ev = events_[0];
      ++ev.accesses;
      ++ev.tag_probes;
      ++ev.data_probes;
      ++ev.hits;
      if (auto_dis) {
        if (!predictor_active_) ++predictor_disabled_refs_;
        if (++epoch_refs_seen_ >= config_.auto_disable.epoch_refs) {
          evaluate_auto_disable();
        }
      }
      const Cycles now = e.post_clock + global_stall_cycles_;
      if (obs_->note_ref(best->core, e.lat, now)) {
        obs_->close_epoch(now, obs_snapshot());
      }
    }
  } else {
    std::uint64_t total = 0;
    for (ParLane& ln : lanes) {
      std::size_t i = ln.committed;
      while (i < ln.log.size() && within(ln.core, ln.log[i])) ++i;
      total += i - ln.committed;
      ln.committed = i;
    }
    if (total > 0) {
      // Every L1 hit adds the same four counters; order is irrelevant.
      LevelEvents& ev = events_[0];
      ev.accesses += total;
      ev.tag_probes += total;
      ev.data_probes += total;
      ev.hits += total;
      if (mode == ParCommitMode::kEpochBulk) {
        // Epoch boundaries fall after exact global ref counts, but hits
        // within one batch are interchangeable: they touch none of the
        // counters evaluate_auto_disable() reads, so only the *count*
        // crossing each boundary matters.
        std::uint64_t left = total;
        while (left > 0) {
          REDHIP_DCHECK(epoch_refs_seen_ < config_.auto_disable.epoch_refs);
          const std::uint64_t room =
              config_.auto_disable.epoch_refs - epoch_refs_seen_;
          const std::uint64_t take = std::min(left, room);
          if (!predictor_active_) predictor_disabled_refs_ += take;
          epoch_refs_seen_ += take;
          if (epoch_refs_seen_ >= config_.auto_disable.epoch_refs) {
            evaluate_auto_disable();
          }
          left -= take;
        }
      }
    }
  }

  // Committed prefixes are final; recycle fully-committed logs so window
  // capacity returns to the lane (keeps vector capacity, no realloc).
  for (ParLane& ln : lanes) {
    if (ln.committed > 0 && ln.committed == ln.log.size()) {
      ln.log.clear();
      ln.committed = 0;
    }
  }
}

void MulticoreSimulator::par_execute_event(ParLane& lane,
                                           std::uint64_t max_refs_per_core) {
  // The exact serial reference body for the parked reference.  Shared state
  // (LLC, predictor, directory, prefetchers, energy counters, obs) evolves
  // here and only here, in global order.
  CoreState& cs = cores_[lane.core];
  const MemRef ref = lane.ev_ref;
  cs.clock += cs.cpi.advance(ref.gap);
  const std::uint64_t misses_before = events_[0].misses;
  const Cycles ref_lat = access(lane.core, ref);
  cs.clock += ref_lat;
  if (!prefetchers_.empty() && events_[0].misses != misses_before) {
    run_prefetches(lane.core, ref);
  }
  if (config_.auto_disable.enabled && llc_pred_ != nullptr) {
    if (!predictor_active_) ++predictor_disabled_refs_;
    if (++epoch_refs_seen_ >= config_.auto_disable.epoch_refs) {
      evaluate_auto_disable();
    }
  }
  if (obs_ != nullptr) obs_note_ref(lane.core, ref_lat, cs);
  if (++cs.refs_done >= max_refs_per_core) {
    cs.exhausted = true;
    lane.status = ParLane::Status::kDone;
  } else {
    lane.status = ParLane::Status::kRunning;
  }
}

void MulticoreSimulator::par_weave(std::uint64_t max_refs_per_core,
                                   ParCommitMode mode) {
  std::vector<ParLane>& lanes = *par_lanes_;
  while (true) {
    // Frontier = the earliest (cycle, core) at which each lane can still
    // produce an item: a parked event's cycle, or the lane clock (the next
    // speculated reference's key can never be earlier).
    ParLane* best = nullptr;
    Cycles best_key = 0;
    for (ParLane& ln : lanes) {
      if (ln.status == ParLane::Status::kDone) continue;
      const Cycles k = ln.status == ParLane::Status::kAtEvent
                           ? ln.ev_key
                           : cores_[ln.core].clock;
      if (best == nullptr || key_before(k, ln.core, best_key, best->core)) {
        best = &ln;
        best_key = k;
      }
    }
    if (best == nullptr) {
      // Every lane done: drain all remaining logged entries.
      par_commit_until(~Cycles{0}, ~CoreId{0}, mode);
      return;
    }
    // Everything strictly before the global frontier minimum is final.
    par_commit_until(best_key, best->core, mode);
    if (best->status == ParLane::Status::kAtEvent) {
      // The event precedes every other lane's earliest possible item, so it
      // is the globally next reference; its execution may roll other lanes
      // back (via back_invalidate_core), which only moves their frontiers
      // later — never before this event.
      par_execute_event(*best, max_refs_per_core);
      continue;
    }
    if (best->status == ParLane::Status::kAtCap) {
      // All of a capped lane's entries are at or before its own frontier,
      // so the commit above drained its log completely; give it its window
      // back.
      REDHIP_DCHECK(best->log.empty());
      best->status = ParLane::Status::kRunning;
    }
    // The globally next item is a runnable lane's future reference — back
    // to the bound phase.
    return;
  }
}

void MulticoreSimulator::par_rewind_lane(ParLane& lane, std::size_t j) {
  const bool had_event = lane.status == ParLane::Status::kAtEvent;
  if (j == lane.log.size() && !had_event) return;  // nothing speculative
  CoreState& cs = cores_[lane.core];
  TagArray& l1 = private_[lane.core];
  // Undo tag-array mutations newest-first; each entry restores the one set
  // it touched, so overlapping touches unwind correctly.  restore_set also
  // rebuilds the set's partial-tag lane from the restored entries, keeping
  // the SoA lane-mirrors-entries invariant across every rewind.
  for (std::size_t i = lane.log.size(); i-- > j;) {
    const ParLane::Entry& e = lane.log[i];
    if (e.touched_set) l1.restore_set(e.set, e.saved);
  }
  if (j < lane.log.size()) {
    // Rewind the core's micro-state to just before the first discarded
    // reference.  (A parked event never advanced clock or CPI — the weave
    // does that when it executes — so an event-only rewind skips this.)
    const ParLane::Entry& ej = lane.log[j];
    cs.clock = ej.key;
    cs.cpi.set_remainder_centi(ej.pre_rem_centi);
    cs.l1_last_line = ej.pre_memo_line;
    cs.l1_last_dirty = ej.pre_memo_dirty;
    cs.refs_done -= lane.log.size() - j;
    cs.exhausted = false;
  }
  // The discarded references (and a parked event's reference, which was
  // fetched after them) re-execute in order, ahead of any references a
  // previous rollback already queued.
  std::vector<MemRef> requeue;
  requeue.reserve(lane.log.size() - j + 1);
  for (std::size_t i = j; i < lane.log.size(); ++i) {
    requeue.push_back(lane.log[i].ref);
  }
  if (had_event) requeue.push_back(lane.ev_ref);
  lane.replay.insert(lane.replay.begin(), requeue.begin(), requeue.end());
  lane.log.resize(j);
  lane.status = ParLane::Status::kRunning;
}

void MulticoreSimulator::par_note_back_invalidate(CoreId core,
                                                  LineAddr victim) {
  ParLane& lane = (*par_lanes_)[core];
  // First uncommitted speculated reference that touched the victim line.
  // Entries on other lines commute with the invalidation: removing the
  // victim preserves rank nibbles and cannot turn their hits into misses,
  // and their promotions/dirty marks are way-local.  The memo interaction
  // is equally safe: a later reference that would wrongly take the memo
  // path on the victim *is* a conflicting entry by definition.
  std::size_t j = lane.log.size();
  for (std::size_t i = lane.committed; i < lane.log.size(); ++i) {
    if ((lane.log[i].ref.addr >> l1_shift_) == victim) {
      j = i;
      break;
    }
  }
  if (j == lane.log.size()) return;  // no conflict; speculation stands

  ++par_rollbacks_;
  par_rewind_lane(lane, j);
}

// ------------------------------------------------------------- drivers

void MulticoreSimulator::par_run_speculative(std::uint64_t max_refs_per_core,
                                             const ParallelOptions& opts) {
  std::vector<ParLane> lanes(config_.cores);
  for (CoreId c = 0; c < config_.cores; ++c) lanes[c].core = c;
  par_lanes_ = &lanes;
  struct Guard {
    MulticoreSimulator* s;
    ~Guard() { s->par_lanes_ = nullptr; }
  } guard{this};

  const std::uint32_t window = std::max<std::uint32_t>(1, opts.window_refs);
  const bool auto_dis = config_.auto_disable.enabled && llc_pred_ != nullptr;
  const ParCommitMode mode =
      obs_ != nullptr ? ParCommitMode::kOrdered
                      : (auto_dis ? ParCommitMode::kEpochBulk
                                  : ParCommitMode::kBulk);

  std::size_t nthreads =
      opts.threads > 0 ? opts.threads : std::thread::hardware_concurrency();
  nthreads = std::min<std::size_t>(std::max<std::size_t>(nthreads, 1),
                                   config_.cores);
  ThreadPool pool(nthreads);

  std::vector<std::size_t> runnable;
  runnable.reserve(lanes.size());
  while (true) {
    // Checkpoint boundary: the pool is idle here (run_phase is a barrier),
    // so when an action is due the speculation quiesces — every lane's
    // uncommitted entries are rolled back to its committed frontier, which
    // leaves the simulator in exactly the serial engines' state at that
    // global cut.  The discarded references re-execute from the replay
    // queues afterwards, so a checkpoint that does *not* terminate the run
    // costs only the rolled-back window.
    if (ckpt_ctl_ != nullptr && ckpt_should_act()) {
      for (ParLane& ln : lanes) par_rewind_lane(ln, ln.committed);
      ckpt_poll_slow();
    }
    bool all_done = true;
    runnable.clear();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].status != ParLane::Status::kDone) all_done = false;
      if (lanes[i].status == ParLane::Status::kRunning) runnable.push_back(i);
    }
    if (all_done) break;
    if (runnable.size() <= 1 || pool.size() <= 1) {
      // A mostly-serialized round (frequent events, or a 1-thread pool)
      // pays no barrier: run the lanes inline.
      for (const std::size_t i : runnable) {
        par_lane_step(lanes[i], max_refs_per_core, window);
      }
    } else {
      pool.run_phase(
          [&](std::size_t i) {
            par_lane_step(lanes[runnable[i]], max_refs_per_core, window);
          },
          runnable.size());
    }
    par_weave(max_refs_per_core, mode);
  }
  // All lanes done; drain any uncommitted tail.
  par_commit_until(~Cycles{0}, ~CoreId{0}, mode);
}

void MulticoreSimulator::par_run_weave_only(std::uint64_t max_refs_per_core,
                                            const ParallelOptions& opts) {
  // Serial-equivalent execution on this thread; the pool only pre-generates
  // each core's trace batches, double-buffered ahead of consumption.  The
  // refill sequence is precomputable because `want` at each refill equals
  // min(kRefillBatch, max - refs generated so far) — rollback never occurs
  // here and the consumer drains batches in order.
  const bool fault = injector_ != nullptr;
  const bool prefetch = !prefetchers_.empty();
  const bool auto_dis = config_.auto_disable.enabled && llc_pred_ != nullptr;

  struct GenLane {
    std::deque<std::vector<MemRef>> ready;   // weave-owned, consume in order
    std::vector<std::vector<MemRef>> fresh;  // worker-owned during a phase
    std::uint64_t gen_refs = 0;
    bool gen_done = false;
  };
  std::vector<GenLane> gen(config_.cores);
  // A checkpoint-restored run resumes with its trace sources already
  // positioned past refs_done consumed references; the generators' quota
  // arithmetic must start from the same point.
  for (CoreId c = 0; c < config_.cores; ++c) {
    gen[c].gen_refs = cores_[c].refs_done;
  }

  std::size_t nthreads =
      opts.threads > 0 ? opts.threads : std::thread::hardware_concurrency();
  nthreads = std::min<std::size_t>(std::max<std::size_t>(nthreads, 1),
                                   config_.cores);
  ThreadPool pool(nthreads);

  // How many batches each core keeps buffered ahead of the weave.  Two would
  // be strict double-buffering; a little more rides out uneven consumption
  // across cores between barriers.
  constexpr std::size_t kGenAhead = 8;

  CoreScheduler sched = start_scheduler(max_refs_per_core);

  while (!sched.done()) {
    // Kick generators for every core running low.  Workers touch only their
    // GenLane::fresh/gen_* and the core's TraceSource; the weave touches
    // only `ready` until wait_idle() below orders everything.
    for (CoreId c = 0; c < config_.cores; ++c) {
      GenLane& g = gen[c];
      if (g.gen_done || g.ready.size() >= kGenAhead) continue;
      const std::size_t want_batches = kGenAhead - g.ready.size();
      TraceSource* trace = cores_[c].trace.get();
      pool.submit([&g, trace, want_batches, max_refs_per_core] {
        for (std::size_t b = 0; b < want_batches; ++b) {
          const std::size_t want = static_cast<std::size_t>(
              std::min<std::uint64_t>(kRefillBatch,
                                      max_refs_per_core - g.gen_refs));
          if (want == 0) {
            g.gen_done = true;  // consumer stops at its quota first
            return;
          }
          std::vector<MemRef> batch(want);
          const std::size_t len = trace->next_batch(batch.data(), want);
          batch.resize(len);
          g.gen_refs += len;
          g.fresh.push_back(std::move(batch));
          if (len == 0) {
            // Exhausted: the empty batch is the marker the consumer needs
            // to retire the core at the same refill the serial engine does.
            g.gen_done = true;
            return;
          }
        }
      });
    }

    // Consume buffered batches while the workers refill; identical to the
    // fast engine's run loop with runtime feature flags (the flags never
    // change the execution sequence, only skip no-op work).
    while (!sched.done()) {
      const CoreId best = sched.top();
      CoreState& cs = cores_[best];
      if (cs.buf_pos == cs.buf_len) {
        GenLane& g = gen[best];
        if (g.ready.empty()) break;  // outpaced the generator; barrier below
        std::vector<MemRef>& batch = g.ready.front();
        cs.buf_len = static_cast<std::uint32_t>(batch.size());
        cs.buf_pos = 0;
        std::copy(batch.begin(), batch.end(), cs.buf.begin());
        g.ready.pop_front();
        if (obs_ != nullptr) {
          obs_->metrics().add(best, ObsCounter::kRefillBatches);
        }
        if (cs.buf_len == 0) {
          cs.exhausted = true;
          sched.retire();
          continue;
        }
      }
      MemRef ref = cs.buf[cs.buf_pos++];
      if (fault) {
        injector_->maybe_perturb(ref);  // FaultSite::kTraceAddr
        inject_faults();                // PT single-event upsets
      }
      cs.clock += cs.cpi.advance(ref.gap);
      const std::uint64_t misses_before = events_[0].misses;
      const Cycles ref_lat = access(best, ref);
      cs.clock += ref_lat;
      if (prefetch && events_[0].misses != misses_before) {
        run_prefetches(best, ref);
      }
      if (auto_dis) {
        if (!predictor_active_) ++predictor_disabled_refs_;
        if (++epoch_refs_seen_ >= config_.auto_disable.epoch_refs) {
          evaluate_auto_disable();
        }
      }
      if (obs_ != nullptr) obs_note_ref(best, ref_lat, cs);
      if (++cs.refs_done >= max_refs_per_core) {
        cs.exhausted = true;
        sched.retire();
      } else {
        sched.advance(cs.clock);
      }
    }

    pool.wait_idle();
    for (GenLane& g : gen) {
      for (std::vector<MemRef>& b : g.fresh) g.ready.push_back(std::move(b));
      g.fresh.clear();
    }
    // Checkpoint boundary: the generators are idle and the weave is between
    // references.  Pre-generated batches (like partially-consumed buffers)
    // are regenerable from the per-core trace positions, so they stay out
    // of the serialized state.
    ckpt_poll();
  }
}

}  // namespace redhip
