// MulticoreSimulator — the trace-driven engine.
//
// Matches the paper's methodology: per-core in-order execution, non-memory
// instructions charged at the application's average CPI (integer
// fixed-point, see common/fixed_point.h), memory references walked through
// the hierarchy with additive serial latencies, and a deterministic
// min-clock interleave across cores so the shared LLC sees a realistic and
// reproducible arrival order.  All timing and energy events are recorded as
// integer counters and priced once at the end by the EnergyLedger.
//
// One simulator instance = one run (it owns the tag arrays and predictors);
// construct a fresh one per configuration.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "cache/tag_array.h"
#include "common/bytestream.h"
#include "common/fixed_point.h"
#include "fault/fault.h"
#include "obs/collector.h"
#include "predict/predictor.h"
#include "prefetch/stride_prefetcher.h"
#include "sim/ckpt_control.h"
#include "sim/config.h"
#include "sim/sampling.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "trace/mem_ref.h"

namespace redhip {

class MulticoreSimulator {
 public:
  // `traces[c]` feeds core c; `cpi_centi[c]` prices its non-memory gaps.
  MulticoreSimulator(const HierarchyConfig& config,
                     std::vector<std::unique_ptr<TraceSource>> traces,
                     std::vector<std::uint32_t> cpi_centi);
  ~MulticoreSimulator();

  // Run until every core has executed `max_refs_per_core` references (or its
  // trace ended).  Returns the priced result.  May be called once.
  //
  // Per-core batched trace refill, a tournament-tree core scheduler
  // (sim/scheduler.h), and a run loop specialized at compile time on the
  // (fault x prefetch x auto-disable) feature mask so runs with a feature
  // off never test for it per reference.  tests/model holds an independent
  // whole-hierarchy model that run() must match event for event.
  //
  // When every core reads a SyntheticTrace and the process has a spare CPU
  // (spare_cpus, common/thread_pool.h), a helper thread generates each
  // core's references ahead of the loop (see RefQueue).  No simulated
  // number and no checkpoint byte depends on whether it ran, and it is
  // joined before run() returns or throws.
  SimResult run(std::uint64_t max_refs_per_core);

  // --- Single-access hooks used by unit tests --------------------------------
  // Execute one reference on one core and return its latency.
  Cycles access_for_test(CoreId core, const MemRef& ref);
  const TagArray& level_array_for_test(std::uint32_t level,
                                       CoreId core) const {
    return level_array(level, core);
  }
  const LlcPredictor* llc_predictor_for_test() const { return llc_pred_.get(); }
  // Mutable PT handle + auditor counters, for fault/recovery tests that
  // corrupt state and single-step accesses without a full run().
  RedhipTable* llc_redhip_for_test() { return llc_redhip_; }
  std::uint64_t audit_checks_for_test() const { return audit_checks_; }
  std::uint64_t invariant_violations_for_test() const {
    return invariant_violations_;
  }
  std::uint64_t recovery_recals_for_test() const { return recovery_recals_; }
  const HierarchyConfig& config() const { return config_; }
  // Batches the run-ahead helper generated (0 when it did not run).
  std::uint64_t ahead_batches_for_test() const { return ahead_batches_; }
  // Null unless config.obs.enabled (see src/obs/collector.h).
  const ObsCollector* obs_for_test() const { return obs_.get(); }
  // --- Statistical sampling (src/sim/sampling.h) -----------------------------
  // Install a sampling plan before running; run() then executes the
  // skip / warm / measure schedule and reports per-metric estimates with
  // 95% CIs in SimResult::sampling.  The plan is validated against the run
  // length at run entry (INVALID_ARGUMENT surfaces as an exception there).
  // Sampled mode cannot compose with fault injection: faults land in the
  // unmeasured gaps nondeterministically relative to the windows, so the
  // estimates would not mean anything.
  void set_sampling(const SamplingPlan& plan);
  const SamplingPlan& sampling_plan() const { return sampling_; }

  // --- Checkpoint/restore (src/ckpt) ----------------------------------------
  // Attach the poll contract (see sim/ckpt_control.h).  Must precede run,
  // before or after a restore; `ctl` is not owned and must outlive the
  // run.  Attaching also turns on JSONL capture so checkpoints can carry
  // the emitted-trace prefix.
  void set_ckpt_control(CkptControl* ctl) {
    ckpt_ctl_ = ctl;
    if (ctl != nullptr && obs_ != nullptr) obs_->ckpt_enable_capture();
  }
  // Payload codec, defined in src/ckpt/sim_state.cc — the subsystem that
  // owns the on-disk format; member functions so they keep private access.
  // serialize captures everything a run needs to continue from a safe
  // boundary; restore applies a payload to a freshly-constructed simulator
  // (before run) and returns false when the payload does not structurally
  // match this configuration.
  void ckpt_serialize(ByteWriter& w) const;
  // Bytes to reserve for ckpt_serialize, so the writer does not regrow.
  std::size_t ckpt_size_hint() const;
  bool ckpt_restore_payload(ByteReader& r);
  // Aggregate executed references (the checkpoint schedule's clock).
  std::uint64_t ckpt_refs_done() const {
    std::uint64_t total = 0;
    for (const CoreState& cs : cores_) total += cs.refs_done;
    return total;
  }

  // How many references a core takes per refill.  256 refs (4 KiB)
  // amortize the virtual next_batch call and keep the generator's state
  // hot without displacing the simulated tag arrays from the host cache.
  // It also bounds the refill-buffer tail a checkpoint stores per core.
  // A SyntheticTrace is run ahead: the helper generates batches of the same
  // size into the core's RefQueue and a refill copies from there.  Any
  // other source (trace files, forwarding wrappers) is read on the run
  // thread at refill time.
  static constexpr std::size_t kRefillBatch = 256;

 private:
  // Sentinel for the L1 MRU memo and the directory memo below.
  static constexpr LineAddr kNoLine = ~LineAddr{0};
  // Slots of the per-core L1 MRU memo: one per L1 set up to this many;
  // larger L1s share a slot between the sets `kL1MemoSlots` apart.
  static constexpr std::uint32_t kL1MemoSlots = 64;
  static_assert(kL1MemoSlots <= 64, "l1_memo_dirty has one bit per slot");
  static std::array<LineAddr, kL1MemoSlots> empty_l1_memo() {
    std::array<LineAddr, kL1MemoSlots> memo;
    memo.fill(kNoLine);
    return memo;
  }

  struct CoreState {
    std::unique_ptr<TraceSource> trace;
    CpiAccumulator cpi{100};  // placeholder; the ctor installs the real CPI
    // L1 MRU memo, slot `line & l1_memo_mask_`.  Invariant: a slot's line
    // is resident in this core's L1 and is the last-touched way of its set.
    // A repeat reference is then a hit whose replacement touch changes
    // nothing and whose prefetched bit is clear (L1 only receives demand
    // fills), so access() serves it with four counter increments.  All
    // lines of one set share a slot, so sharing a slot between sets only
    // costs memo hits.  access() fills a slot as its last step, and
    // back_invalidate_core clears the victim's slot (invalidation leaves the
    // replacement order alone).  Derived state, not checkpointed: a restore
    // starts empty.  Bit s of `l1_memo_dirty` latches "slot s's L1 copy is
    // known dirty", so repeated write hits skip the mark_dirty scan.
    std::array<LineAddr, kL1MemoSlots> l1_memo = empty_l1_memo();
    std::uint64_t l1_memo_dirty = 0;
    // Excludes the global stall offset: stalls that freeze *every* core
    // (recalibration, recovery) accumulate once in global_stall_cycles_
    // instead of being added to each core's clock.  A uniform addition never
    // changes the min-clock order, so the scheduler compares these offsets
    // directly; the offset is added back when results are finalized.
    Cycles clock = 0;
    std::uint64_t refs_done = 0;
    bool exhausted = false;
    // Batched refill buffer (the run loop's refills and the sampled warm
    // loop).
    std::vector<MemRef> buf;
    std::uint32_t buf_pos = 0;
    std::uint32_t buf_len = 0;
    // Line addresses of buf[0..buf_len), batch-computed at refill (one
    // vectorizable pass) and consumed by the software pipeline's prefetch
    // hints.  Hints only: fault injection may perturb ref.addr at consume
    // time, so access() always re-derives the authoritative line from the
    // (possibly perturbed) reference.
    std::vector<LineAddr> lines;

    // The checkpointed scalars, in on-disk order (src/ckpt/sim_state.cc).
    template <class S>
    static auto fields(S& s) {
      return std::tie(s.refs_done, s.clock, s.cpi, s.exhausted);
    }
  };
  // The run totals, audit counters and auto-disable state, and the
  // sampling progress: the simulator's own checkpointed members, in on-disk
  // order (defined in src/ckpt/sim_state.cc).
  template <class S>
  static auto ckpt_totals(S& s);
  template <class S>
  static auto ckpt_sampling(S& s);

  TagArray& level_array(std::uint32_t level, CoreId core);
  const TagArray& level_array(std::uint32_t level, CoreId core) const;
  bool is_shared(std::uint32_t level) const {
    return level + 1 == config_.num_levels();
  }

  // --- Event recording -------------------------------------------------------
  // Probe level `lvl` >= 1 (access() probes L1 itself) for core `core`;
  // records tag/data probe events and the hit/miss counters, returns (hit,
  // latency).
  struct ProbeOutcome {
    bool hit = false;
    Cycles latency = 0;
  };
  ProbeOutcome probe(std::uint32_t lvl, CoreId core, LineAddr line);

  // Install `line` at `lvl`, handling eviction fallout for the configured
  // inclusion policy (back-invalidation, predictor on_evict, prefetch and
  // writeback accounting).  `dirty` installs the line already modified.
  // `known_absent`: the caller has proved `line` cannot be resident at
  // `lvl` (a probe of that array missed in this same access, or an audited
  // bypass verified LLC absence, which inclusion extends upward), so the
  // resident re-scan inside fill_if_absent is skipped.  Prefetch fills must
  // pass false — a prefetch can race a demand fill of the same line.
  void fill_at(std::uint32_t lvl, CoreId core, LineAddr line, bool prefetched,
               bool dirty = false, bool known_absent = false);
  // Dirty-eviction bookkeeping for a victim leaving `lvl`.
  void note_writeback(std::uint32_t lvl, CoreId core, LineAddr victim);
  // Remove an LLC victim from every private level (inclusive/hybrid).
  void back_invalidate_all_cores(std::uint32_t below_level, LineAddr victim);
  void back_invalidate_core(std::uint32_t below_level, CoreId core,
                            LineAddr victim);

  // Exclusive/hybrid: insert at `lvl` and cascade the victim downward; the
  // cascade stops before `stop_level` (exclusive: past the LLC, victims are
  // dropped; hybrid: private victims stop at L3 since the LLC keeps a copy).
  void insert_with_cascade(std::uint32_t lvl, CoreId core, LineAddr line,
                           std::uint32_t last_level, bool dirty = false);

  // --- Access paths per inclusion policy -------------------------------------
  // access() serves the L1 (memo, then one probe); on an L1 miss the
  // per-policy path walks L2 down and returns the latency it adds.  `dirty`
  // is a write under model_writebacks.
  Cycles access(CoreId core, const MemRef& ref);
  Cycles access_inclusive(CoreId core, LineAddr line, bool dirty);
  Cycles access_hybrid(CoreId core, LineAddr line, bool dirty);
  Cycles access_exclusive(CoreId core, LineAddr line, bool dirty);

  // Predictor bookkeeping shared by the access paths.
  Prediction query_llc_predictor(LineAddr line, Cycles& latency);
  void note_l1_miss();
  // Online invariant auditor: shadow-check a predicted-absent decision
  // against the LLC tag array.  Returns true when the bypass is safe; on a
  // violation counts it, applies the configured recovery policy, and
  // returns false so the caller walks the hierarchy instead (graceful
  // degradation — the access is priced as if predicted present).
  bool audit_bypass(LineAddr line);
  // Per-reference fault injection into the PT (src/fault).  No-op unless
  // the injector exists and the scheme has a ReDHiP table over the LLC.
  void inject_faults();
  // Auto-disable (paper §IV): epoch evaluation of predictor usefulness.
  void evaluate_auto_disable();

  // Prefetch handling (inclusive only).
  void run_prefetches(CoreId core, const MemRef& ref);

  // --- Observability (src/obs; obs_ is null when disabled) -------------------
  // Emit the run_begin event (config-derived fields only).
  void obs_begin_run(std::uint64_t max_refs_per_core);
  // Snapshot the counters the epoch series differences (cold path: called
  // once per epoch boundary and once at the end of the run).
  ObsSnapshot obs_snapshot() const;
  // Per-reference hook of the run loop.  `lat` is the reference's access
  // latency, `cs` the executing core.
  void obs_note_ref(CoreId core, Cycles lat, const CoreState& cs) {
    const Cycles now = cs.clock + global_stall_cycles_;
    if (obs_->note_ref(core, lat, now)) {
      obs_->close_epoch(now, obs_snapshot());
    }
  }

  // --- Fast-path run machinery ----------------------------------------------
  // The run loop specialized on the feature mask; run() dispatches once per
  // run to the instantiation matching (injector, prefetchers, auto-disable).
  template <bool kFault, bool kPrefetch, bool kAutoDisable>
  void run_loop(std::uint64_t max_refs_per_core);
  // One detailed segment: run every core to the absolute per-core target
  // `target_refs_per_core` (the mask dispatch over run_loop).  An exact run
  // is one segment to max_refs_per_core; a sampled run runs one segment per
  // measurement window.
  void segment(std::uint64_t target_refs_per_core);
  // Shared epilogue: aggregate events, price energy, apply the stall offset.
  SimResult finalize_result();
  // The one pricing path: the predictor and prefetch events summed over
  // every table, and the current counters priced over `max_clock` cycles.
  // finalize_result prices the whole run with it; a sampled run prices the
  // cumulative counters at each window boundary (the ledger is linear, so
  // a window's energy is the difference of two boundary prices).
  struct Priced {
    PredictorEvents predictor;
    PrefetchEvents prefetch;
    double elapsed_seconds = 0.0;
    EnergyBreakdown energy;
  };
  Priced price_counters(Cycles max_clock) const;

  // --- Statistical sampling machinery (see run_sampled in simulator.cc) ------
  // The skip/warm/measure orchestrator; each measurement window is one
  // segment() to an absolute per-core target.
  SimResult run_sampled(std::uint64_t max_refs_per_core);
  // Fast-forward every core to `target` refs: pure trace repositioning, no
  // simulated state changes, chunked so checkpoint actions stay responsive.
  void sample_skip_to(std::uint64_t target_refs_per_core);
  // Functionally warm every core to `target` refs with clocks, CPI,
  // per-reference observability and auto-disable epoch ticking frozen.
  void sample_warm_to(std::uint64_t target_refs_per_core);
  SampleSnapshot sample_snapshot() const;
  void sample_close_window(std::uint64_t window_index);

  // Mark cores that have reached `max_refs_per_core` exhausted and build the
  // min-clock scheduler over the rest from their current clocks.
  CoreScheduler start_scheduler(std::uint64_t max_refs_per_core);

  // --- Run-ahead trace generation (DESIGN fast-path item 10) ----------------
  // Up to `want` of core `c`'s next references into `out`: from its
  // RefQueue while the run holds a spare CPU (starting the helper on
  // demand, and rethrowing an exception the helper caught), else straight
  // from the source.  Fewer than `want` only when the trace ended, which
  // a run-ahead source never does.
  std::size_t pull_refs(CoreId c, MemRef* out, std::size_t want);
  void ahead_start();
  void ahead_loop();  // the helper thread's body
  // Stop and join the helper, leaving the queues as they are (after a
  // helper failure).  No-op when it is not running.
  void ahead_stop();
  // Stop the helper and rewind every source to the end of its core's
  // refill buffer: before a checkpoint save or a skip, and on every exit
  // from run().
  void ahead_park();

  // --- Checkpoint polling ----------------------------------------------------
  // Called at safe boundaries only (between references).  When
  // checkpointing is off the cost is one pointer test.
  void ckpt_poll_slow();  // save and/or throw, see ckpt_control.h
  void ckpt_save_now();   // park the run-ahead helper, then save
  void ckpt_poll() {
    if (ckpt_ctl_) ckpt_poll_slow();
  }

  HierarchyConfig config_;
  std::vector<CoreState> cores_;
  // Private tag arrays, flat in lvl-major order: index `lvl * cores + core`
  // for lvl 0..N-2 (one pointer chase on the hot path instead of two);
  // shared LLC separate.
  std::vector<TagArray> private_;
  std::unique_ptr<TagArray> shared_;
  // LLC core-presence directory (inclusive hierarchies, <= 8 cores): one
  // byte per LLC slot, bit c set while core c *may* hold the line at its
  // top private level.  Conservative — bits are set on top-private fills
  // and only reset when the LLC slot is refilled, so a stale bit costs one
  // wasted scan but a clear bit is a guarantee.  Lets an LLC eviction
  // back-invalidate only the cores that can actually hold the victim
  // instead of scanning every core's private hierarchy.
  std::vector<std::uint8_t> llc_dir_;
  bool llc_dir_on_ = false;
  std::uint32_t top_private_ = 0;  // highest private level index (N-2)
  // One-entry (line -> LLC way) memo feeding the directory update: every
  // inclusive demand path touches the LLC — a probe hit or a fill — in the
  // same access before the top-private fill claims the line's slot, so the
  // way is already known and the find_way re-scan is skipped.  Trusted only
  // on an exact line match, and sound because an LLC line's way changes
  // only via an LLC fill (which refreshes the memo), and prefetch fills that
  // miss the memo simply fall back to the scan.  Maintained only while
  // llc_dir_on_.
  LineAddr dir_memo_line_ = kNoLine;
  std::uint32_t dir_memo_way_ = 0;

  // Hoisted L1 constants (the memo fast path must not re-derive them per
  // reference): line shift, the latency an L1 hit charges, and the memo's
  // slot mask (min(L1 sets, kL1MemoSlots) - 1).
  std::uint32_t l1_shift_ = 0;
  Cycles l1_hit_latency_ = 0;
  LineAddr l1_memo_mask_ = 0;

  // Hoisted per-level probe constants: the latency a probe charges on hit
  // and on miss, and whether the level is phased (a phased miss skips the
  // data-probe counter).  config_.levels never changes after construction,
  // so probe() reads this flat table instead of chasing the LevelSpec and
  // re-deriving the same sums per reference.
  struct LevelTiming {
    Cycles hit_latency = 0;
    Cycles miss_latency = 0;
    bool phased = false;
  };
  std::vector<LevelTiming> level_timing_;

  // Software-pipeline hint: pull the tag lanes `line` will touch if it
  // misses the L1 memo — every level's set lane plus the ReDHiP PT
  // row — toward the host caches while the *current* reference simulates.
  // Prefetches have no simulated side effects, so the hint cannot change a
  // simulated number; it only overlaps host memory latency with useful
  // work.
  void prefetch_next_ref(CoreId core, LineAddr line) {
    const std::uint32_t n = config_.num_levels();
    for (std::uint32_t lvl = 0; lvl + 1 < n; ++lvl) {
      private_[lvl * config_.cores + core].prefetch_line(line);
    }
    shared_->prefetch_line(line);
    if (llc_redhip_ != nullptr) llc_redhip_->prefetch_row(line);
  }

  // Inclusive/hybrid: one predictor over the shared LLC.
  std::unique_ptr<LlcPredictor> llc_pred_;
  // Exclusive: per-level predictors — excl_pred_[lvl][core] for private
  // levels (lvl 1..N-2), excl_shared_pred_ for the LLC.
  std::vector<std::vector<std::unique_ptr<RedhipTable>>> excl_pred_;
  std::unique_ptr<RedhipTable> excl_shared_pred_;
  std::uint64_t excl_l1_misses_ = 0;
  double predictor_leakage_w_ = 0.0;

  // One prefetcher per core, as in hardware (a shared table would alias
  // same-PC streams from different cores and never lock onto a stride).
  std::vector<std::unique_ptr<StridePrefetcher>> prefetchers_;
  std::vector<LineAddr> prefetch_queue_;

  // Auto-disable state (inclusive/hybrid only).
  bool predictor_active_ = true;
  std::uint64_t epoch_refs_seen_ = 0;
  std::uint64_t epoch_start_misses_ = 0;
  std::uint64_t epoch_start_lookups_ = 0;
  std::uint64_t epoch_start_absents_ = 0;
  std::uint32_t disable_backoff_ = 1;
  std::uint32_t disabled_epochs_left_ = 0;
  std::uint64_t predictor_disabled_refs_ = 0;

  // Fault injection + invariant auditing (null/zero when disabled; the hot
  // path only pays a pointer test).
  std::unique_ptr<FaultInjector> injector_;
  RedhipTable* llc_redhip_ = nullptr;  // llc_pred_ downcast, for fault hooks
  std::uint64_t audit_checks_ = 0;
  std::uint64_t invariant_violations_ = 0;
  std::uint64_t recovery_recals_ = 0;
  Cycles recovery_stall_cycles_ = 0;

  // Observability collector; null when config.obs.enabled is false, so the
  // disabled hot-path cost is one predicted pointer test per reference.
  std::unique_ptr<ObsCollector> obs_;

  std::vector<LevelEvents> events_;
  PrefetchEvents prefetch_events_;  // simulator-level prefetch accounting
  std::uint64_t memory_accesses_ = 0;
  std::uint64_t demand_memory_accesses_ = 0;
  std::uint64_t memory_writebacks_ = 0;
  Cycles recal_stall_cycles_ = 0;
  // Stall cycles applied uniformly to every core (see CoreState::clock).
  Cycles global_stall_cycles_ = 0;
  bool ran_ = false;

  // Statistical-sampling state.  The open-window snapshot and the closed
  // windows are part of the checkpoint payload (src/ckpt/sim_state.cc) so a
  // restored sampled run is bit-identical to an uninterrupted one.
  SamplingPlan sampling_;
  std::vector<WindowSample> sample_windows_;
  SampleSnapshot sample_win_start_;
  bool sample_win_open_ = false;
  std::uint64_t sample_skipped_refs_ = 0;
  std::uint64_t sample_warmed_refs_ = 0;
  // Host wall time spent inside sample_warm_to; surfaced as
  // SimResult::warm_host_seconds (host-side, not simulated state — never
  // checkpointed, never part of stats_identical).
  double sample_warm_host_seconds_ = 0.0;

  // Run-ahead state.  `ahead_on_`: this run holds a spare CPU for the
  // helper.  The helper may generate each core's stream up to position
  // `ahead_horizon_` (the end of the run, or of the sampled period being
  // simulated), so it never produces references the run will not consume.
  // `ahead_` (queues and thread) is built on the first refill.
  struct RunAhead;
  std::unique_ptr<RunAhead> ahead_;
  bool ahead_on_ = false;
  bool ahead_running_ = false;  // started and not yet joined
  std::uint64_t ahead_horizon_ = 0;
  std::uint64_t ahead_batches_ = 0;

  // Checkpoint control (not owned; null = checkpointing off).
  CkptControl* ckpt_ctl_ = nullptr;
  std::uint64_t ckpt_last_save_refs_ = 0;  // aggregate refs at last save/load
};

}  // namespace redhip
