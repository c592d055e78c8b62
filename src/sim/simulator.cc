#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "energy/cacti_lite.h"
#include "predict/counting_bloom.h"
#include "predict/oracle.h"
#include "predict/partial_tag.h"
#include "sim/ref_queue.h"
#include "trace/workloads.h"

namespace redhip {

static_assert(RefQueue::kBatch == MulticoreSimulator::kRefillBatch,
              "a queued batch is one refill");

// The helper thread and the queues it fills.  Built on a run's first
// refill; the thread runs from ahead_start() to ahead_stop().
struct MulticoreSimulator::RunAhead {
  explicit RunAhead(const std::vector<CoreState>& cores)
      : queues(cores.size()), budget(cores.size(), 0) {
    for (const CoreState& cs : cores) sources.push_back(cs.trace.get());
  }

  std::vector<TraceSource*> sources;
  std::vector<RefQueue> queues;
  // References the helper may still generate per core (written only by
  // the helper while it runs, set by the run thread before it starts).
  std::vector<std::uint64_t> budget;
  std::thread thread;
  std::atomic<bool> stop{false};
  // Bumped by the run thread to wake a helper that found every queue full
  // (at most half full again, or a stop request).
  std::atomic<std::uint32_t> wake{0};
  // Bumped by the helper after every batch and when it exits, to wake a
  // run thread waiting on an empty queue.
  std::atomic<std::uint32_t> published{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // set before `failed`
  std::uint64_t batches = 0;  // helper-owned; read after the join
};

MulticoreSimulator::MulticoreSimulator(
    const HierarchyConfig& config,
    std::vector<std::unique_ptr<TraceSource>> traces,
    std::vector<std::uint32_t> cpi_centi)
    : config_(config) {
  config_.validate();
  REDHIP_CHECK_MSG(traces.size() == config_.cores, "one trace per core");
  REDHIP_CHECK_MSG(cpi_centi.size() == config_.cores, "one CPI per core");

  SplitMix64 seeder(config_.seed);
  const std::uint32_t n = config_.num_levels();
  private_.reserve((n - 1) * config_.cores);
  for (std::uint32_t lvl = 0; lvl + 1 < n; ++lvl) {
    for (CoreId c = 0; c < config_.cores; ++c) {
      private_.emplace_back(config_.levels[lvl].geom, seeder.next());
    }
  }
  shared_ = std::make_unique<TagArray>(config_.levels[n - 1].geom,
                                       seeder.next());
  events_.resize(n);
  top_private_ = n - 2;
  llc_dir_on_ =
      config_.inclusion == InclusionPolicy::kInclusive && config_.cores <= 8;
  if (llc_dir_on_) {
    llc_dir_.assign(shared_->sets() * shared_->ways(), 0);
  }
  const LevelSpec& l1 = config_.levels[0];
  l1_shift_ = l1.geom.line_shift();
  l1_hit_latency_ = l1.phased ? l1.energy.tag_delay + l1.energy.data_delay
                              : l1.energy.parallel_delay();
  l1_memo_mask_ =
      std::min<std::uint64_t>(l1.geom.sets(), kL1MemoSlots) - 1;
  level_timing_.resize(n);
  for (std::uint32_t lvl = 0; lvl < n; ++lvl) {
    const LevelSpec& spec = config_.levels[lvl];
    LevelTiming& t = level_timing_[lvl];
    t.phased = spec.phased;
    if (spec.phased) {
      t.hit_latency = spec.energy.tag_delay + spec.energy.data_delay;
      t.miss_latency = spec.energy.tag_delay;
    } else {
      // Parallel access reads both arrays, but a *miss* is known at
      // tag-compare time — the discarded data read costs energy, not
      // latency.  Small caches fold tag timing into the single access
      // number.
      t.hit_latency = spec.energy.parallel_delay();
      t.miss_latency = spec.energy.tag_delay > 0 ? spec.energy.tag_delay
                                                 : spec.energy.data_delay;
    }
  }

  // Predictors.
  if (config_.inclusion == InclusionPolicy::kExclusive) {
    if (config_.scheme == Scheme::kRedhip) {
      excl_pred_.resize(n - 1);
      for (std::uint32_t lvl = 1; lvl + 1 < n; ++lvl) {
        const RedhipConfig rc =
            config_.redhip_for_size(config_.levels[lvl].geom.size_bytes);
        for (CoreId c = 0; c < config_.cores; ++c) {
          excl_pred_[lvl].push_back(std::make_unique<RedhipTable>(rc));
          excl_pred_[lvl].back()->attach_covered(&private_[lvl * config_.cores + c]);
          predictor_leakage_w_ += rc.energy.leakage_w;
        }
      }
      excl_shared_pred_ = std::make_unique<RedhipTable>(config_.redhip);
      excl_shared_pred_->attach_covered(shared_.get());
      predictor_leakage_w_ += config_.redhip.energy.leakage_w;
    } else if (config_.scheme == Scheme::kOracle) {
      // Exclusive Oracle peeks at every level directly in the access path;
      // no structures needed.
    }
  } else {
    switch (config_.scheme) {
      case Scheme::kRedhip: {
        auto table = std::make_unique<RedhipTable>(config_.redhip);
        table->attach_covered(shared_.get());
        llc_pred_ = std::move(table);
        predictor_leakage_w_ = config_.redhip.energy.leakage_w;
        break;
      }
      case Scheme::kCbf:
        llc_pred_ = std::make_unique<CountingBloomFilter>(config_.cbf);
        predictor_leakage_w_ = config_.cbf.energy.leakage_w;
        break;
      case Scheme::kOracle:
        llc_pred_ = std::make_unique<OraclePredictor>(shared_.get());
        break;
      case Scheme::kPartialTag: {
        const auto& g = config_.llc().geom;
        llc_pred_ = std::make_unique<PartialTagPredictor>(
            config_.partial_tag, g.sets(), g.ways, g.set_bits());
        predictor_leakage_w_ = config_.partial_tag.energy.leakage_w;
        break;
      }
      case Scheme::kBase:
      case Scheme::kPhased:
        break;
    }
  }

  if (config_.prefetch) {
    for (CoreId c = 0; c < config_.cores; ++c) {
      prefetchers_.push_back(
          std::make_unique<StridePrefetcher>(config_.prefetcher, l1_shift_));
    }
  }

  // Fault injection + recovery plumbing (all null when disabled).
  llc_redhip_ = dynamic_cast<RedhipTable*>(llc_pred_.get());
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault);
    if (llc_redhip_ != nullptr &&
        injector_->site_enabled(FaultSite::kRecalDrop)) {
      llc_redhip_->set_recal_chunk_filter(
          [this](std::uint64_t, std::uint64_t) {
            const bool drop = injector_->fires(FaultSite::kRecalDrop);
            if (drop) ++injector_->stats().recal_chunks_dropped;
            return drop;
          });
    }
  }

  // Observability (src/obs): the collector exists only when enabled, and
  // the recal observer rides the shared-LLC ReDHiP table (the exclusive
  // hierarchy's per-level tables are not traced).
  if (config_.obs.enabled) {
    obs_ = std::make_unique<ObsCollector>(config_.obs, config_.cores,
                                          config_.fault.enabled);
    if (llc_redhip_ != nullptr) llc_redhip_->set_recal_observer(obs_.get());
  }

  cores_.reserve(config_.cores);
  for (CoreId c = 0; c < config_.cores; ++c) {
    CoreState cs;
    cs.trace = std::move(traces[c]);
    cs.cpi = CpiAccumulator(cpi_centi[c]);
    cs.buf.resize(kRefillBatch);
    cs.lines.resize(kRefillBatch);
    cores_.push_back(std::move(cs));
  }
}

// Out of line, where RunAhead is complete.  run() has joined the helper.
MulticoreSimulator::~MulticoreSimulator() = default;

TagArray& MulticoreSimulator::level_array(std::uint32_t level, CoreId core) {
  return is_shared(level) ? *shared_
                          : private_[level * config_.cores + core];
}

const TagArray& MulticoreSimulator::level_array(std::uint32_t level,
                                                CoreId core) const {
  return is_shared(level) ? *shared_
                          : private_[level * config_.cores + core];
}

// ----------------------------------------------------------- event recording

MulticoreSimulator::ProbeOutcome MulticoreSimulator::probe(std::uint32_t lvl,
                                                           CoreId core,
                                                           LineAddr line) {
  TagArray& arr = level_array(lvl, core);
  const LevelTiming& t = level_timing_[lvl];
  LevelEvents& ev = events_[lvl];

  ++ev.accesses;
  ProbeOutcome out;
  const TagArray::LookupResult r = arr.lookup(line);
  out.hit = r.hit;
  // Same counters and latencies as deriving them from the LevelSpec per
  // probe (a phased miss never reads the data array; a parallel access
  // always reads both); the sums were just hoisted into level_timing_.
  ++ev.tag_probes;
  if (r.hit) {
    ++ev.data_probes;
    ++ev.hits;
    out.latency = t.hit_latency;
    if (llc_dir_on_ && is_shared(lvl)) {
      // Remember the line's LLC slot for the top-private directory update
      // later in this same access (see dir_memo_line_).
      dir_memo_line_ = line;
      dir_memo_way_ = r.way;
    }
  } else {
    if (!t.phased) ++ev.data_probes;
    ++ev.misses;
    out.latency = t.miss_latency;
  }
  if (r.was_prefetched && !prefetchers_.empty()) ++prefetch_events_.useful;
  return out;
}

void MulticoreSimulator::note_writeback(std::uint32_t lvl, CoreId core,
                                        LineAddr victim) {
  if (!config_.model_writebacks) return;
  if (is_shared(lvl)) {
    ++memory_writebacks_;
    return;
  }
  // The inclusive level below holds a copy; it absorbs the dirty data.
  ++events_[lvl + 1].writebacks;
  level_array(lvl + 1, core).mark_dirty(victim);
}

void MulticoreSimulator::fill_at(std::uint32_t lvl, CoreId core, LineAddr line,
                                 bool prefetched, bool dirty,
                                 bool known_absent) {
  TagArray& arr = level_array(lvl, core);
  TagArray::FillResult r;
  if (known_absent) {
    // Demand path: the probe of this array already missed (or the audited
    // bypass proved absence), so fill() skips straight to way selection.
    // Its debug check re-proves the contract.
    r = arr.fill(line, prefetched, dirty);
  } else if (!arr.fill_if_absent(line, prefetched, dirty, &r)) {
    // Single set scan: resident copies (a prefetch racing the demand write)
    // only pick up the dirty bit; absent lines fill, possibly evicting.
    return;
  }
  // Directory upkeep.  A top-private fill claims the line's LLC slot for
  // this core (the inclusive fill order guarantees the LLC copy already
  // exists); an LLC fill recycles the slot, so the victim's mask is
  // snapshotted and the slot starts clean for the incoming line.
  std::uint8_t victim_cores = 0;
  if (llc_dir_on_) {
    if (lvl == top_private_) {
      std::uint32_t w = 0;
      bool in_llc;
      if (line == dir_memo_line_) {
        // The access already located (or created) the line's LLC slot;
        // skip the re-scan.  Debug builds re-prove the memo.
        w = dir_memo_way_;
        in_llc = true;
        std::uint32_t check_w = 0;
        REDHIP_DCHECK(shared_->find_way(line, &check_w) && check_w == w);
      } else {
        in_llc = shared_->find_way(line, &w);
      }
      REDHIP_DCHECK(in_llc);
      if (in_llc) {
        llc_dir_[shared_->set_of(line) * shared_->ways() + w] |=
            static_cast<std::uint8_t>(1u << core);
      }
    } else if (is_shared(lvl)) {
      std::uint8_t& slot =
          llc_dir_[shared_->set_of(line) * shared_->ways() + r.way];
      victim_cores = slot;
      slot = 0;
      dir_memo_line_ = line;
      dir_memo_way_ = r.way;
    }
  }
  ++events_[lvl].fills;
  // Eviction is reported before the fill: predictors that mirror the cache
  // exactly (the partial-tag baseline) must see the victim leave before the
  // newcomer arrives, or their per-set occupancy transiently overflows.
  if (r.evicted && is_shared(lvl) && llc_pred_) {
    llc_pred_->on_evict(r.victim);
  }
  if (is_shared(lvl) && llc_pred_) llc_pred_->on_fill(line);
  if (!r.evicted) return;

  ++events_[lvl].evictions;
  if (r.victim_was_prefetched && !prefetchers_.empty()) {
    ++prefetch_events_.useless;
  }
  if (r.victim_was_dirty) note_writeback(lvl, core, r.victim);
  if (is_shared(lvl)) {
    // Inclusive LLC (both the inclusive and hybrid policies): the victim
    // must leave every private cache.  With the directory only the cores
    // whose mask bit is set can hold a copy — the walk for everyone else
    // would provably find nothing, so skipping it changes no statistic.
    if (llc_dir_on_) {
      for (CoreId c = 0; victim_cores != 0; ++c, victim_cores >>= 1) {
        if (victim_cores & 1) back_invalidate_core(lvl, c, r.victim);
      }
    } else {
      back_invalidate_all_cores(lvl, r.victim);
    }
  } else if (config_.inclusion == InclusionPolicy::kInclusive) {
    // Private levels are inclusive of the levels above them.
    back_invalidate_core(lvl, core, r.victim);
  }
}

void MulticoreSimulator::back_invalidate_all_cores(std::uint32_t below_level,
                                                   LineAddr victim) {
  for (CoreId c = 0; c < config_.cores; ++c) {
    back_invalidate_core(below_level, c, victim);
  }
}

void MulticoreSimulator::back_invalidate_core(std::uint32_t below_level,
                                              CoreId core, LineAddr victim) {
  // The L1 memo's residency guarantee ends here: this is the only path
  // that removes an L1 line outside the owning core's own access.
  LineAddr& memo = cores_[core].l1_memo[victim & l1_memo_mask_];
  if (memo == victim) memo = kNoLine;
  // Directory-precise: only actual residents are touched, and only
  // successful invalidations are charged (one tag write each).  A dirty
  // upper copy purged by level `below_level`'s eviction writes back to the
  // level below that eviction (which still holds the line) — or to memory
  // when it was the LLC evicting.
  if (config_.inclusion == InclusionPolicy::kInclusive) {
    // Inclusion means a line held at level L is held at every level below
    // L, so the holders form a contiguous run ending at `below_level - 1`.
    // Walking top-down and stopping at the first non-resident level charges
    // exactly the same invalidations as the full walk, and turns the common
    // "no private copies" case into a single set scan.
    for (std::uint32_t lvl = below_level; lvl-- > 0;) {
      bool was_dirty = false;
      if (!level_array(lvl, core).invalidate(victim, &was_dirty)) return;
      ++events_[lvl].invalidations;
      if (was_dirty) note_writeback(below_level, core, victim);
    }
    return;
  }
  // Hybrid / exclusive private chains hold at most one copy of a line, so
  // the walk can stop after invalidating it.
  for (std::uint32_t lvl = 0; lvl < below_level; ++lvl) {
    bool was_dirty = false;
    if (level_array(lvl, core).invalidate(victim, &was_dirty)) {
      ++events_[lvl].invalidations;
      if (was_dirty) note_writeback(below_level, core, victim);
      return;
    }
  }
}

void MulticoreSimulator::insert_with_cascade(std::uint32_t lvl, CoreId core,
                                             LineAddr line,
                                             std::uint32_t last_level,
                                             bool dirty) {
  LineAddr incoming = line;
  bool incoming_dirty = dirty && config_.model_writebacks;
  for (std::uint32_t l = lvl; l <= last_level; ++l) {
    TagArray& arr = level_array(l, core);
    REDHIP_DCHECK(!arr.contains(incoming));
    const TagArray::FillResult r = arr.fill(incoming, false, incoming_dirty);
    ++events_[l].fills;
    if (l >= 1 && config_.inclusion == InclusionPolicy::kExclusive &&
        config_.scheme == Scheme::kRedhip) {
      RedhipTable* t =
          is_shared(l) ? excl_shared_pred_.get() : excl_pred_[l][core].get();
      t->on_fill(incoming);
    }
    if (!r.evicted) return;
    ++events_[l].evictions;
    incoming = r.victim;  // the victim moves down one level, dirt and all
    incoming_dirty = r.victim_was_dirty;
  }
  // Victim of the last level is dropped (exclusive LLC — a dirty drop goes
  // to memory) or already covered by the inclusive LLC (hybrid chain, where
  // the LLC copy absorbs the dirty data).
  if (incoming_dirty) note_writeback(last_level, core, incoming);
}

// ------------------------------------------------------- predictor plumbing

Prediction MulticoreSimulator::query_llc_predictor(LineAddr line,
                                                   Cycles& latency) {
  if (!llc_pred_ || !predictor_active_) return Prediction::kPresent;
  const Prediction p = llc_pred_->query(line);
  latency += llc_pred_->lookup_delay();
  if (p == Prediction::kAbsent) {
    ++llc_pred_->events().predicted_absent;
  } else {
    ++llc_pred_->events().predicted_present;
  }
  return p;
}

void MulticoreSimulator::note_l1_miss() {
  if (!predictor_active_) return;  // gated off: recalibration paused too
  Cycles stall = 0;
  if (config_.inclusion == InclusionPolicy::kExclusive) {
    if (config_.scheme != Scheme::kRedhip) return;
    const std::uint64_t interval = config_.redhip.recal_interval_l1_misses;
    if (interval == 0) return;
    if (++excl_l1_misses_ < interval) return;
    excl_l1_misses_ = 0;
    // All tables recalibrate concurrently against their own tag arrays; the
    // stall is the slowest one (the LLC table).
    for (std::uint32_t lvl = 1; lvl + 1 < config_.num_levels(); ++lvl) {
      for (CoreId c = 0; c < config_.cores; ++c) {
        stall = std::max(stall,
                         excl_pred_[lvl][c]->recalibrate(
                             private_[lvl * config_.cores + c]));
      }
    }
    stall = std::max(stall, excl_shared_pred_->recalibrate(*shared_));
  } else {
    if (!llc_pred_) return;
    stall = llc_pred_->note_l1_miss_and_maybe_recalibrate(*shared_);
  }
  if (stall == 0) return;
  recal_stall_cycles_ += stall;
  global_stall_cycles_ += stall;
}

bool MulticoreSimulator::audit_bypass(LineAddr line) {
  if (!config_.audit.enabled) {
    // Without injected faults the no-false-negative property is structural
    // (checked in debug builds).  With injection but no auditor the bypass
    // proceeds uncorrected and the run silently mis-prices the access —
    // ablation_fault_tolerance quantifies exactly that damage.
    if (injector_ == nullptr) REDHIP_DCHECK(!shared_->contains(line));
    return true;
  }
  ++audit_checks_;
  if (!shared_->contains(line)) return true;
  ++invariant_violations_;
  switch (config_.audit.policy) {
    case RecoveryPolicy::kAbortRetry:
      // Only a *transient* fault model makes a retry meaningful (the
      // reseeded fault stream may miss); a deterministic fault would just
      // reproduce, so it surfaces as a plain failure.
      if (injector_ != nullptr && config_.fault.transient) {
        throw TransientFaultError(
            "invariant violation: predicted-absent line is LLC-resident; "
            "aborting the run for a reseeded retry");
      }
      throw std::runtime_error(
          "invariant violation: predicted-absent line is LLC-resident "
          "(deterministic fault; not retryable)");
    case RecoveryPolicy::kRecalibrate: {
      // Emergency recalibration: rebuild the PT exactly from the tag array,
      // restoring the no-false-negative property.  The stall freezes every
      // core and the tag reads + PT writes are priced by the EnergyLedger
      // like any scheduled recalibration.
      Cycles stall = 0;
      if (llc_redhip_ != nullptr) {
        stall = llc_redhip_->recalibrate(*shared_);
        ++recovery_recals_;
        recovery_stall_cycles_ += stall;
        recal_stall_cycles_ += stall;
        global_stall_cycles_ += stall;
      }
      if (obs_ != nullptr) {
        obs_->emit_recovery(to_string(config_.audit.policy), stall,
                            invariant_violations_);
      }
      break;
    }
    case RecoveryPolicy::kCountOnly:
      if (obs_ != nullptr) {
        obs_->emit_recovery(to_string(config_.audit.policy), 0,
                            invariant_violations_);
      }
      break;
  }
  return false;  // degrade gracefully: walk the hierarchy instead
}

void MulticoreSimulator::inject_faults() {
  if (llc_redhip_ == nullptr) return;
  const std::uint64_t bits = llc_redhip_->config().table_bits;
  // An SEU strikes a uniformly random cell; only a strike that actually
  // flips the bit is counted (a 1→0 strike on a 0 bit is invisible).
  if (injector_->fires(FaultSite::kPtBitClear) &&
      llc_redhip_->corrupt_clear_bit(injector_->pick(bits))) {
    ++injector_->stats().pt_bits_cleared;
  }
  if (injector_->fires(FaultSite::kPtBitSet) &&
      llc_redhip_->corrupt_set_bit(injector_->pick(bits))) {
    ++injector_->stats().pt_bits_set;
  }
}

void MulticoreSimulator::evaluate_auto_disable() {
  const auto& ad = config_.auto_disable;
  epoch_refs_seen_ = 0;

  if (!predictor_active_) {
    if (--disabled_epochs_left_ > 0) return;
    // Probe epoch: re-enable; the table is stale after the pause, so pay
    // for one full recalibration up front.
    predictor_active_ = true;
    if (auto* t = dynamic_cast<RedhipTable*>(llc_pred_.get())) {
      const Cycles stall = t->recalibrate(*shared_);
      recal_stall_cycles_ += stall;
      global_stall_cycles_ += stall;
    }
    if (obs_ != nullptr) obs_->emit_auto_disable(true, 0);
  } else {
    const std::uint64_t misses = events_[0].misses - epoch_start_misses_;
    const std::uint64_t lookups =
        llc_pred_->events().lookups - epoch_start_lookups_;
    const std::uint64_t absents =
        llc_pred_->events().predicted_absent - epoch_start_absents_;
    const std::uint64_t miss_ppm = misses * 1'000'000 / ad.epoch_refs;
    const std::uint64_t bypass_ppm =
        lookups == 0 ? 0 : absents * 1'000'000 / lookups;
    const bool useless =
        miss_ppm < ad.min_l1_miss_ppm || bypass_ppm < ad.min_bypass_ppm;
    if (useless) {
      predictor_active_ = false;
      disabled_epochs_left_ = disable_backoff_;
      disable_backoff_ = std::min(disable_backoff_ * 2, ad.max_backoff_epochs);
      if (obs_ != nullptr) {
        obs_->emit_auto_disable(false, disabled_epochs_left_);
      }
    } else {
      disable_backoff_ = 1;
    }
  }
  epoch_start_misses_ = events_[0].misses;
  epoch_start_lookups_ = llc_pred_->events().lookups;
  epoch_start_absents_ = llc_pred_->events().predicted_absent;
}

// ------------------------------------------------------------- access paths

Cycles MulticoreSimulator::access(CoreId core, const MemRef& ref) {
  const LineAddr line = ref.addr >> l1_shift_;
  const bool dirty = ref.is_write && config_.model_writebacks;
  CoreState& cs = cores_[core];
  const LineAddr slot = line & l1_memo_mask_;
  const std::uint64_t slot_bit = std::uint64_t{1} << slot;
  LevelEvents& ev = events_[0];
  ++ev.accesses;
  ++ev.tag_probes;
  if (line == cs.l1_memo[slot]) {
    // L1 MRU memo hit (see CoreState::l1_memo): this reproduces the L1
    // lookup exactly.  A guaranteed hit charges one tag and one data probe
    // under both phased and parallel L1 policies, the replacement touch is
    // a no-op, and the prefetched bit is known clear.
    REDHIP_DCHECK(private_[core].contains(line));
    ++ev.data_probes;
    ++ev.hits;
    if (dirty && (cs.l1_memo_dirty & slot_bit) == 0) {
      private_[core].mark_dirty(line);
      cs.l1_memo_dirty |= slot_bit;
    }
    return l1_hit_latency_;
  }
  // The one L1 probe.  Writes dirty the L1 copy (write-allocate, writeback
  // policy).  L1 only receives demand fills, so no prefetched mark is ever
  // consumed here.
  const TagArray::LookupResult r = private_[core].lookup(line, dirty);
  REDHIP_DCHECK(!r.was_prefetched);
  Cycles lat;
  if (r.hit) {
    ++ev.data_probes;
    ++ev.hits;
    lat = l1_hit_latency_;
  } else {
    if (!level_timing_[0].phased) ++ev.data_probes;
    ++ev.misses;
    note_l1_miss();
    lat = level_timing_[0].miss_latency;
    switch (config_.inclusion) {
      case InclusionPolicy::kInclusive:
        lat += access_inclusive(core, line, dirty);
        break;
      case InclusionPolicy::kHybrid:
        lat += access_hybrid(core, line, dirty);
        break;
      case InclusionPolicy::kExclusive:
        lat += access_exclusive(core, line, dirty);
        break;
    }
  }
  // Every path above leaves `line` in L1 as its set's last-touched way;
  // remember it for the next access.  Dirty state is re-derived lazily (a
  // spurious mark_dirty is idempotent).
  cs.l1_memo[slot] = line;
  cs.l1_memo_dirty &= ~slot_bit;
  return lat;
}

Cycles MulticoreSimulator::access_inclusive(CoreId core, LineAddr line,
                                            bool dirty) {
  const std::uint32_t n = config_.num_levels();
  Cycles lat = 0;
  const Prediction p = query_llc_predictor(line, lat);
  // The core guarantee: a bypass may never hide on-chip data.  audit_bypass
  // enforces it (debug check, or the online auditor under injected faults).
  if (p == Prediction::kAbsent && audit_bypass(line)) {
    for (std::uint32_t lvl = 1; lvl < n; ++lvl) ++events_[lvl].skipped;
    ++memory_accesses_;
    ++demand_memory_accesses_;
    lat += config_.memory_latency;
    // Absence is proven when the bypass was audited (the auditor read the
    // LLC tags; inclusion extends the proof to every private level) or when
    // no injector runs (the no-false-negative property is structural).  An
    // unaudited bypass under injected faults may be wrong — the fill must
    // tolerate a resident line.
    const bool bypass_absent = config_.audit.enabled || injector_ == nullptr;
    for (std::uint32_t lvl = n; lvl-- > 0;) {
      fill_at(lvl, core, line, false, dirty && lvl == 0, bypass_absent);
    }
    return lat;
  }

  for (std::uint32_t lvl = 1; lvl < n; ++lvl) {
    const ProbeOutcome o = probe(lvl, core, line);
    lat += o.latency;
    if (o.hit) {
      if (llc_pred_) ++llc_pred_->events().true_positives;
      // Every level below `lvl` probed and missed in this access; nothing
      // adds lines between the probe and the fill (back-invalidations only
      // remove), so the fills are known-absent.
      for (std::uint32_t l = lvl; l-- > 0;) {
        fill_at(l, core, line, false, dirty && l == 0, true);
      }
      return lat;
    }
  }
  if (llc_pred_) ++llc_pred_->events().false_positives;
  lat += config_.memory_latency;
  ++memory_accesses_;
  ++demand_memory_accesses_;
  // Full miss: every level probed and missed, so every fill is known-absent.
  for (std::uint32_t lvl = n; lvl-- > 0;) {
    fill_at(lvl, core, line, false, dirty && lvl == 0, true);
  }
  return lat;
}

Cycles MulticoreSimulator::access_hybrid(CoreId core, LineAddr line,
                                         bool dirty) {
  const std::uint32_t n = config_.num_levels();
  Cycles lat = 0;
  const Prediction p = query_llc_predictor(line, lat);
  if (p == Prediction::kAbsent && audit_bypass(line)) {
    for (std::uint32_t lvl = 1; lvl < n; ++lvl) ++events_[lvl].skipped;
    ++memory_accesses_;
    ++demand_memory_accesses_;
    lat += config_.memory_latency;
    // Same absence proof as the inclusive bypass: audited, or no injector.
    fill_at(n - 1, core, line, false, false,
            config_.audit.enabled || injector_ == nullptr);  // incl LLC
    insert_with_cascade(0, core, line, n - 2, dirty);  // private chain
    return lat;
  }

  for (std::uint32_t lvl = 1; lvl < n; ++lvl) {
    const ProbeOutcome o = probe(lvl, core, line);
    lat += o.latency;
    if (!o.hit) continue;
    if (llc_pred_) ++llc_pred_->events().true_positives;
    bool was_dirty = false;
    if (!is_shared(lvl)) {
      // Move (not copy) out of the exclusive private level.
      level_array(lvl, core).invalidate(line, &was_dirty);
      ++events_[lvl].invalidations;
    }
    insert_with_cascade(0, core, line, n - 2, dirty || was_dirty);
    return lat;
  }
  if (llc_pred_) ++llc_pred_->events().false_positives;
  lat += config_.memory_latency;
  ++memory_accesses_;
  ++demand_memory_accesses_;
  // The LLC probe above missed, so its fill is known-absent.
  fill_at(n - 1, core, line, false, false, true);
  insert_with_cascade(0, core, line, n - 2, dirty);
  return lat;
}

Cycles MulticoreSimulator::access_exclusive(CoreId core, LineAddr line,
                                            bool dirty) {
  const std::uint32_t n = config_.num_levels();
  Cycles lat = 0;

  // Per-level predictions, gathered up front (the paper queries all tables
  // simultaneously on the L1 miss, one table-access latency total).
  bool predicted[16];
  const bool redhip = config_.scheme == Scheme::kRedhip;
  const bool oracle = config_.scheme == Scheme::kOracle;
  for (std::uint32_t lvl = 1; lvl < n; ++lvl) {
    if (redhip) {
      RedhipTable* t =
          is_shared(lvl) ? excl_shared_pred_.get() : excl_pred_[lvl][core].get();
      const Prediction pr = t->query(line);
      predicted[lvl] = pr == Prediction::kPresent;
      if (pr == Prediction::kAbsent) {
        ++t->events().predicted_absent;
      } else {
        ++t->events().predicted_present;
      }
    } else if (oracle) {
      predicted[lvl] = level_array(lvl, core).contains(line);
    } else {
      predicted[lvl] = true;
    }
  }
  if (redhip) lat += config_.redhip.energy.total_delay();

  for (std::uint32_t lvl = 1; lvl < n; ++lvl) {
    if (!predicted[lvl]) {
      REDHIP_DCHECK(!level_array(lvl, core).contains(line));
      ++events_[lvl].skipped;
      continue;
    }
    const ProbeOutcome o = probe(lvl, core, line);
    lat += o.latency;
    if (redhip) {
      RedhipTable* t =
          is_shared(lvl) ? excl_shared_pred_.get() : excl_pred_[lvl][core].get();
      if (o.hit) {
        ++t->events().true_positives;
      } else {
        ++t->events().false_positives;
      }
    }
    if (o.hit) {
      // Exclusive move to L1; victims cascade down, the LLC victim drops.
      bool was_dirty = false;
      level_array(lvl, core).invalidate(line, &was_dirty);
      ++events_[lvl].invalidations;
      insert_with_cascade(0, core, line, n - 1, dirty || was_dirty);
      return lat;
    }
  }
  lat += config_.memory_latency;
  ++memory_accesses_;
  ++demand_memory_accesses_;
  insert_with_cascade(0, core, line, n - 1, dirty);
  return lat;
}

// ------------------------------------------------------------------ prefetch

void MulticoreSimulator::run_prefetches(CoreId core, const MemRef& ref) {
  prefetch_queue_.clear();
  prefetchers_[core]->observe(ref.pc, ref.addr, prefetch_queue_);
  const std::uint32_t n = config_.num_levels();
  PrefetchEvents& pev = prefetch_events_;

  for (const LineAddr q : prefetch_queue_) {
    // Filter against the near caches (one small tag probe).
    ++events_[1].tag_probes;
    if (level_array(0, core).contains(q) || level_array(1, core).contains(q)) {
      ++pev.redundant;
      continue;
    }
    ++pev.issued;

    // When combined with ReDHiP the prefetch probe consults the PT first and
    // skips the doomed L3/L4 lookups — this is how ReDHiP "offsets the
    // energy overhead of prefetching" (paper §V-C).
    bool go_to_memory = false;
    std::uint32_t found_lvl = 0;
    if (llc_pred_) {
      Cycles ignored = 0;
      if (query_llc_predictor(q, ignored) == Prediction::kAbsent &&
          audit_bypass(q)) {
        go_to_memory = true;
      }
    }
    if (!go_to_memory) {
      for (std::uint32_t lvl = 2; lvl < n; ++lvl) {
        ++events_[lvl].tag_probes;  // prefetch probes: tag-only until hit
        if (level_array(lvl, core).contains(q)) {
          ++events_[lvl].data_probes;  // read the line to copy it upward
          found_lvl = lvl;
          break;
        }
      }
      if (found_lvl == 0) go_to_memory = true;
      if (llc_pred_ && found_lvl != 0) ++llc_pred_->events().true_positives;
      if (llc_pred_ && found_lvl == 0) ++llc_pred_->events().false_positives;
    }
    if (go_to_memory) {
      ++memory_accesses_;
      found_lvl = n;  // fill every level below L2
    }
    // Install downward-first to keep inclusion, down to L2 (not L1: the
    // prefetcher sits beside L2).  Only the L2 copy carries the mark used
    // for useful/useless accounting.
    for (std::uint32_t lvl = found_lvl; lvl-- > 1;) {
      fill_at(lvl, core, q, /*prefetched=*/lvl == 1);
    }
  }
}

// ----------------------------------------------------------------- main loop

Cycles MulticoreSimulator::access_for_test(CoreId core, const MemRef& ref) {
  const std::uint64_t misses_before = events_[0].misses;
  const Cycles lat = access(core, ref);
  if (!prefetchers_.empty() && events_[0].misses != misses_before) {
    run_prefetches(core, ref);
  }
  return lat;
}

CoreScheduler MulticoreSimulator::start_scheduler(
    std::uint64_t max_refs_per_core) {
  std::vector<std::uint64_t> keys(config_.cores, CoreScheduler::kRetired);
  for (CoreId c = 0; c < config_.cores; ++c) {
    CoreState& cs = cores_[c];
    if (max_refs_per_core == 0 || cs.refs_done >= max_refs_per_core) {
      cs.exhausted = true;
    }
    if (!cs.exhausted) keys[c] = CoreScheduler::key(cs.clock, c);
  }
  return CoreScheduler(keys);
}

template <bool kFault, bool kPrefetch, bool kAutoDisable>
void MulticoreSimulator::run_loop(std::uint64_t max_refs_per_core) {
  CoreScheduler sched = start_scheduler(max_refs_per_core);
  while (!sched.done()) {
    const CoreId best = sched.top();
    CoreState& cs = cores_[best];
    if (cs.buf_pos == cs.buf_len) {
      // An empty refill buffer is a safe checkpoint boundary: the scheduler
      // is between references.  The other cores' partly consumed buffers
      // hold raw (unperturbed) trace content: the codec stores each one's
      // unconsumed tail beside its generator state, and a source without
      // state capture is instead replayed to its position on restore.
      ckpt_poll();
      // Refill, capped at what this core still needs so the source never
      // generates references the run will not consume.
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(kRefillBatch,
                                  max_refs_per_core - cs.refs_done));
      cs.buf_len =
          static_cast<std::uint32_t>(pull_refs(best, cs.buf.data(), want));
      cs.buf_pos = 0;
      // Software pipeline, stage 1: batch-compute the batch's line
      // addresses in one dense pass (the prefetch hints below read them),
      // and start pulling the first reference's tag lanes while the
      // scheduler and trace state are still hot.  Neither step touches
      // simulated state, so they cannot change a simulated number.
      for (std::uint32_t i = 0; i < cs.buf_len; ++i) {
        cs.lines[i] = cs.buf[i].addr >> l1_shift_;
      }
      if (cs.buf_len > 0 &&
          cs.lines[0] != cs.l1_memo[cs.lines[0] & l1_memo_mask_]) {
        prefetch_next_ref(best, cs.lines[0]);
      }
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
    // Software pipeline, stage 2: while this reference simulates, pull the
    // tag lanes its successor (this core's next buffered reference) will
    // touch.  A repeat of the current line is served by the L1 memo, so
    // only a line change issues the hint.
    if (cs.buf_pos < cs.buf_len) {
      const LineAddr next = cs.lines[cs.buf_pos];
      if (next != cs.lines[cs.buf_pos - 1]) prefetch_next_ref(best, next);
    }
    if constexpr (kFault) {
      injector_->maybe_perturb(ref);  // FaultSite::kTraceAddr
      inject_faults();                // PT single-event upsets
    }
    cs.clock += cs.cpi.advance(ref.gap);
    Cycles ref_lat;
    if constexpr (kPrefetch) {
      const std::uint64_t misses_before = events_[0].misses;
      ref_lat = access(best, ref);
      cs.clock += ref_lat;
      if (events_[0].misses != misses_before) {
        run_prefetches(best, ref);
      }
    } else {
      ref_lat = access(best, ref);
      cs.clock += ref_lat;
    }
    if constexpr (kAutoDisable) {
      if (!predictor_active_) ++predictor_disabled_refs_;
      if (++epoch_refs_seen_ >= config_.auto_disable.epoch_refs) {
        evaluate_auto_disable();
      }
    }
    if (obs_ != nullptr) obs_note_ref(best, ref_lat, cs);
    // Note: committing a core's same-line L1-hit run in one go here is NOT
    // sound, even though the hits are private — it reorders them against
    // other cores' LLC evictions, and a back-invalidation landing between
    // two same-line hits turns the second one into a miss in the min-clock
    // interleave.  Scheduling must stay strictly per-reference.
    if (++cs.refs_done >= max_refs_per_core) {
      cs.exhausted = true;
      sched.retire();
    } else {
      sched.advance(cs.clock);
    }
  }
}

void MulticoreSimulator::segment(std::uint64_t target_refs_per_core) {
  // Resolve the feature mask once and dispatch to the run loop compiled for
  // exactly this configuration; the common paper configurations (all three
  // off) execute a loop with no injector/prefetcher/auto-disable tests.
  const bool fault = injector_ != nullptr;
  const bool prefetch = !prefetchers_.empty();
  const bool auto_disable = config_.auto_disable.enabled && llc_pred_ != nullptr;
  const unsigned mask = (fault ? 4u : 0u) | (prefetch ? 2u : 0u) |
                        (auto_disable ? 1u : 0u);
  switch (mask) {
    case 0: run_loop<false, false, false>(target_refs_per_core); break;
    case 1: run_loop<false, false, true>(target_refs_per_core); break;
    case 2: run_loop<false, true, false>(target_refs_per_core); break;
    case 3: run_loop<false, true, true>(target_refs_per_core); break;
    case 4: run_loop<true, false, false>(target_refs_per_core); break;
    case 5: run_loop<true, false, true>(target_refs_per_core); break;
    case 6: run_loop<true, true, false>(target_refs_per_core); break;
    default: run_loop<true, true, true>(target_refs_per_core); break;
  }
}

SimResult MulticoreSimulator::run(std::uint64_t max_refs_per_core) {
  REDHIP_CHECK_MSG(!ran_, "a simulator instance runs once");
  ran_ = true;

  // Run-ahead gate: only a SyntheticTrace owns all of its state, so only it
  // may be driven from another thread (a trace file or a forwarding wrapper
  // such as a tracing shim stays on this one), and only a spare CPU is
  // worth a helper — on a busy process it would slow the other runs.
  bool synthetic = true;
  for (const CoreState& cs : cores_) {
    synthetic &= dynamic_cast<const SyntheticTrace*>(cs.trace.get()) != nullptr;
  }
  const SpareCpu cpu(synthetic);
  ahead_on_ = cpu.held();
  // Joins the helper on every way out (the normal end, an exception, a
  // graceful shutdown or a deadline) and leaves each source where the run
  // loop stopped.  Declared after `cpu`, so it runs first.
  struct JoinAhead {
    MulticoreSimulator* sim;
    ~JoinAhead() { sim->ahead_park(); }
  } join{this};

  obs_begin_run(max_refs_per_core);
  if (sampling_.enabled()) return run_sampled(max_refs_per_core);
  {
    // Scoped so run_seconds is accumulated before finalize_result copies
    // the timings into the result.
    ScopedTimer timer(obs_ != nullptr ? obs_->run_timer() : nullptr);
    ahead_horizon_ = max_refs_per_core;
    segment(max_refs_per_core);
  }
  return finalize_result();
}

// ------------------------------------------------------------------ run-ahead

std::size_t MulticoreSimulator::pull_refs(CoreId c, MemRef* out,
                                          std::size_t want) {
  if (!ahead_running_ && ahead_on_) ahead_start();
  if (!ahead_on_) return cores_[c].trace->next_batch(out, want);
  RunAhead& a = *ahead_;
  RefQueue& q = a.queues[c];
  std::size_t got = 0;
  while (true) {
    if (a.failed.load(std::memory_order_acquire)) {
      ahead_stop();
      std::rethrow_exception(a.error);
    }
    const std::uint32_t seen = a.published.load(std::memory_order_acquire);
    got += q.take(out + got, want - got);
    if (got == want) break;
    // The queue ran dry: the helper has the core's budget left to
    // generate, so it publishes (or fails) and bumps `published`.
    a.published.wait(seen, std::memory_order_acquire);
  }
  if (q.queued() <= RefQueue::kDepth / 2) {
    // Cheap unless the helper sleeps: notify_one skips the futex when
    // nobody waits.
    a.wake.fetch_add(1, std::memory_order_release);
    a.wake.notify_one();
  }
  return got;
}

void MulticoreSimulator::ahead_start() {
  if (ahead_ == nullptr) ahead_ = std::make_unique<RunAhead>(cores_);
  RunAhead& a = *ahead_;
  for (CoreId c = 0; c < config_.cores; ++c) {
    // The queues are empty (first start, or rewound by ahead_park), so the
    // source stands at the end of the core's refill buffer.
    const CoreState& cs = cores_[c];
    const std::uint64_t at = cs.refs_done + (cs.buf_len - cs.buf_pos);
    a.budget[c] = ahead_horizon_ > at ? ahead_horizon_ - at : 0;
  }
  a.stop.store(false, std::memory_order_relaxed);
  try {
    a.thread = std::thread([this] { ahead_loop(); });
  } catch (const std::system_error&) {
    ahead_on_ = false;  // no thread to be had: generate on this one
    return;
  }
  ahead_running_ = true;
}

void MulticoreSimulator::ahead_loop() {
  RunAhead& a = *ahead_;
  try {
    while (!a.stop.load(std::memory_order_acquire)) {
      const std::uint32_t seen = a.wake.load(std::memory_order_acquire);
      // Fill the emptiest queue with budget left, so a run thread blocked
      // on an empty queue is served first.
      std::size_t best = a.queues.size();
      std::uint32_t best_queued = RefQueue::kDepth;
      bool more = false;
      for (std::size_t c = 0; c < a.queues.size(); ++c) {
        if (a.budget[c] == 0) continue;
        more = true;
        const std::uint32_t queued = a.queues[c].queued();
        if (queued < best_queued) {
          best = c;
          best_queued = queued;
        }
      }
      if (!more) break;  // every core's share is generated
      if (best == a.queues.size()) {
        a.wake.wait(seen, std::memory_order_acquire);  // all queues full
        continue;
      }
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(RefQueue::kBatch, a.budget[best]));
      a.queues[best].produce(*a.sources[best], n);
      a.budget[best] -= n;
      ++a.batches;
      a.published.fetch_add(1, std::memory_order_release);
      a.published.notify_one();
    }
  } catch (...) {
    a.error = std::current_exception();
    a.failed.store(true, std::memory_order_release);
  }
  a.published.fetch_add(1, std::memory_order_release);
  a.published.notify_one();
}

void MulticoreSimulator::ahead_stop() {
  if (!ahead_running_) return;
  RunAhead& a = *ahead_;
  a.stop.store(true, std::memory_order_release);
  a.wake.fetch_add(1, std::memory_order_release);
  a.wake.notify_one();
  a.thread.join();
  ahead_running_ = false;
  ahead_batches_ += std::exchange(a.batches, 0);
}

void MulticoreSimulator::ahead_park() {
  if (!ahead_running_) return;
  ahead_stop();
  for (CoreId c = 0; c < config_.cores; ++c) {
    ahead_->queues[c].rewind(*cores_[c].trace);
  }
}

// ------------------------------------------------------- statistical sampling

void MulticoreSimulator::set_sampling(const SamplingPlan& plan) {
  REDHIP_CHECK_MSG(!ran_, "set_sampling must precede run");
  REDHIP_CHECK_MSG(!plan.enabled() || injector_ == nullptr,
                   "sampled mode cannot compose with fault injection: "
                   "faults landing in unmeasured gaps make the window "
                   "estimates meaningless");
  sampling_ = plan;
}

SimResult MulticoreSimulator::run_sampled(std::uint64_t max_refs_per_core) {
  sampling_.validate(max_refs_per_core).throw_if_error();
  {
    // Scoped so run_seconds is accumulated before finalize_result copies
    // the timings into the result.
    ScopedTimer timer(obs_ != nullptr ? obs_->run_timer() : nullptr);
    const std::uint64_t period = sampling_.period_refs;
    const std::uint64_t windows = sampling_.windows_for(max_refs_per_core);
    const std::uint64_t skip_len =
        period - sampling_.warmup_refs - sampling_.window_refs;
    // Resume-aware: closed windows arrived with the checkpoint payload, and
    // every phase below targets an absolute per-core position, so a restore
    // that landed mid-skip, mid-warm or mid-window simply continues — the
    // already-met targets are no-ops.
    for (std::uint64_t w = sample_windows_.size(); w < windows; ++w) {
      const std::uint64_t base = w * period;
      ahead_horizon_ = base + period;
      sample_skip_to(base + skip_len);
      sample_warm_to(base + skip_len + sampling_.warmup_refs);
      if (!sample_win_open_) {
        sample_win_start_ = sample_snapshot();
        sample_win_open_ = true;
        // Shareable warm snapshot at exponentially spaced window opens
        // (1, 2, 4, ... windows done): dense enough that a restore skips
        // at least half the warm work, sparse enough that snapshot I/O
        // stays a rounding error next to the skip/warm phases.
        if (ckpt_ctl_ != nullptr && ckpt_ctl_->save_window &&
            ((w + 1) & w) == 0) {
          ahead_park();
          ckpt_ctl_->save_window(*this, w);
        }
      }
      // The previous segment (or a completed warm phase) left every core
      // flagged exhausted; the flags are quota markers, not trace state, so
      // each segment re-derives them against its own target.
      for (CoreState& cs : cores_) cs.exhausted = false;
      segment(base + period);
      sample_close_window(w);
    }
    // Tail: references past the last full period are never measured.
    sample_skip_to(max_refs_per_core);
  }
  return finalize_result();
}

void MulticoreSimulator::sample_skip_to(std::uint64_t target_refs_per_core) {
  // Chunk boundaries are absolute positions, so every core polls for
  // checkpoint actions at the same points no matter where a restore dropped
  // it, and a save inside a gap always finds all cores at one boundary.
  // Skipping touches nothing but the trace cursor: clocks, CPI remainders,
  // the L1 memo and every counter stay frozen (and the frozen PT/tag pair
  // keeps the no-false-negative invariant trivially intact).
  static constexpr std::uint64_t kSkipChunk = 64 * 1024;
  ahead_park();
  while (true) {
    bool any = false;
    for (CoreState& cs : cores_) {
      if (cs.refs_done >= target_refs_per_core) continue;
      const std::uint64_t end =
          std::min(target_refs_per_core,
                   (cs.refs_done / kSkipChunk + 1) * kSkipChunk);
      const std::uint64_t n = end - cs.refs_done;
      cs.trace->skip(n);
      cs.refs_done += n;
      sample_skipped_refs_ += n;
      any = true;
    }
    if (!any) return;
    ckpt_poll();
  }
}

void MulticoreSimulator::sample_warm_to(std::uint64_t target_refs_per_core) {
  // Functional warming: tags, predictor, PT/CBF and prefetch tables see
  // every reference through the ordinary access path, but time stands still
  // — no CPI/clock advance, no per-reference observability, no auto-disable
  // epoch ticking.  Counter churn is harmless because window metrics are
  // snapshot deltas; recalibrations triggered here keep the PT coherent and
  // their stall lands between windows, where the deltas never look.
  //
  // Cores advance round-robin in absolute-position chunks (same rationale
  // as sample_skip_to): the shared-LLC interleave is deterministic and a
  // restore mid-warm continues it exactly.
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t chunk = kRefillBatch;
  const bool prefetch = !prefetchers_.empty();
  while (true) {
    bool any = false;
    for (CoreId c = 0; c < config_.cores; ++c) {
      CoreState& cs = cores_[c];
      if (cs.refs_done >= target_refs_per_core) continue;
      const std::uint64_t end = std::min(
          target_refs_per_core, (cs.refs_done / chunk + 1) * chunk);
      const std::size_t want = static_cast<std::size_t>(end - cs.refs_done);
      const std::size_t got = pull_refs(c, cs.buf.data(), want);
      for (std::size_t i = 0; i < got; ++i) {
        const MemRef& ref = cs.buf[i];
        if (prefetch) {
          const std::uint64_t misses_before = events_[0].misses;
          access(c, ref);
          if (events_[0].misses != misses_before) run_prefetches(c, ref);
        } else {
          access(c, ref);
        }
      }
      cs.refs_done += got;
      sample_warmed_refs_ += got;
      // A finite trace that ends mid-warm pins the core at the target:
      // its stream is over and every later phase would find nothing.
      if (got < want) cs.refs_done = target_refs_per_core;
      any = true;
    }
    if (!any) break;
    ckpt_poll();
  }
  // The warm loop borrowed the refill buffers; leave them logically empty.
  for (CoreState& cs : cores_) {
    cs.buf_pos = 0;
    cs.buf_len = 0;
  }
  // Two clock reads per period — noise next to the 100k-ref warm body —
  // buy the warm throughput figure bench_speed reports.
  sample_warm_host_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

SampleSnapshot MulticoreSimulator::sample_snapshot() const {
  SampleSnapshot s;
  for (const CoreState& cs : cores_) {
    const Cycles clock = cs.clock + global_stall_cycles_;
    s.refs += cs.refs_done;
    s.core_cycles += clock;
    s.max_clock = std::max(s.max_clock, clock);
  }
  s.l1_accesses = events_[0].accesses;
  s.l1_hits = events_[0].hits;
  s.energy_j = price_counters(s.max_clock).energy.total_j();
  return s;
}

void MulticoreSimulator::sample_close_window(std::uint64_t window_index) {
  const SampleSnapshot end = sample_snapshot();
  WindowSample ws;
  ws.index = window_index;
  ws.start_refs = sample_win_start_.refs;
  ws.refs = end.refs - sample_win_start_.refs;
  ws.core_cycles = end.core_cycles - sample_win_start_.core_cycles;
  ws.l1_accesses = end.l1_accesses - sample_win_start_.l1_accesses;
  ws.l1_hits = end.l1_hits - sample_win_start_.l1_hits;
  ws.energy_j = end.energy_j - sample_win_start_.energy_j;
  sample_windows_.push_back(ws);
  sample_win_open_ = false;
  if (obs_ != nullptr) {
    obs_->emit_sample_window(ws.index, ws.start_refs, ws.refs, ws.core_cycles,
                             ws.l1_accesses, ws.l1_hits, ws.energy_j);
    // Windows double as epochs: close one at every window boundary so the
    // epoch series tracks the measured portions of the run.
    obs_->close_epoch(end.max_clock, obs_snapshot());
  }
}

// --------------------------------------------------------- checkpoint polling

void MulticoreSimulator::ckpt_poll_slow() {
  CkptControl& ctl = *ckpt_ctl_;
  // Shutdown first: a stop request wants state on disk even when it lands
  // at the same boundary as an interval tick.
  if (ctl.stop_flag != nullptr &&
      ctl.stop_flag->load(std::memory_order_relaxed)) {
    ckpt_save_now();
    throw GracefulShutdownRequest(
        "stop requested; checkpoint written at a safe boundary");
  }
  if (ctl.has_deadline && std::chrono::steady_clock::now() >= ctl.deadline) {
    throw DeadlineExceededError("cell wall-clock budget exhausted");
  }
  const std::uint64_t total = ckpt_refs_done();
  if (ctl.save_at_refs > 0 && ckpt_last_save_refs_ < ctl.save_at_refs &&
      total >= ctl.save_at_refs) {
    // One-shot warmup checkpoint (sweep warmup sharing).  It also re-anchors
    // the periodic interval — the state just hit disk — which is what
    // keeps it one-shot.  A run restored at or past the point skips it:
    // that checkpoint (or a later one) already exists, and rewriting it
    // would only churn the shared warmup file other sweep cells read.
    ckpt_last_save_refs_ = total;
    ckpt_save_now();
    return;
  }
  if (ctl.interval_refs > 0 &&
      total - ckpt_last_save_refs_ >= ctl.interval_refs) {
    ckpt_last_save_refs_ = total;
    ckpt_save_now();
  }
}

void MulticoreSimulator::ckpt_save_now() {
  // Park the run-ahead helper first, so each source stands at the end of
  // its core's refill buffer, as the codec expects.
  ahead_park();
  if (ckpt_ctl_->save) ckpt_ctl_->save(*this);
}

void MulticoreSimulator::obs_begin_run(std::uint64_t max_refs_per_core) {
  if (obs_ == nullptr) return;
  ObsRunInfo info;
  info.cores = config_.cores;
  info.scheme = to_string(config_.scheme);
  info.inclusion = to_string(config_.inclusion);
  info.refs_per_core = max_refs_per_core;
  info.seed = config_.seed;
  info.prefetch_degree = config_.prefetch ? config_.prefetcher.degree : 0;
  info.recal_interval = config_.scheme == Scheme::kRedhip
                            ? config_.redhip.recal_interval_l1_misses
                            : 0;
  info.recal_mode = config_.scheme == Scheme::kRedhip
                        ? to_string(config_.redhip.recal_mode)
                        : "none";
  info.faults_enabled = config_.fault.enabled;
  obs_->emit_run_begin(info);
}

ObsSnapshot MulticoreSimulator::obs_snapshot() const {
  ObsSnapshot s;
  s.l1_accesses = events_[0].accesses;
  s.l1_misses = events_[0].misses;
  if (llc_pred_ != nullptr) {
    const PredictorEvents& pe = llc_pred_->events();
    s.lookups = pe.lookups;
    s.predicted_absent = pe.predicted_absent;
    s.predicted_present = pe.predicted_present;
    s.true_positives = pe.true_positives;
    s.false_positives = pe.false_positives;
    s.recalibrations = pe.recalibrations;
  }
  s.invariant_violations = invariant_violations_;
  s.pt_occupancy = llc_redhip_ != nullptr ? llc_redhip_->bits_set() : 0;
  s.predictor_active = predictor_active_;
  return s;
}

MulticoreSimulator::Priced MulticoreSimulator::price_counters(
    Cycles max_clock) const {
  Priced p;
  if (llc_pred_) p.predictor = llc_pred_->events();
  for (const auto& per_core : excl_pred_) {
    for (const auto& t : per_core) {
      if (t) p.predictor += t->events();
    }
  }
  if (excl_shared_pred_) p.predictor += excl_shared_pred_->events();
  p.prefetch = prefetch_events_;
  for (const auto& pf : prefetchers_) p.prefetch += pf->events();
  p.elapsed_seconds =
      static_cast<double>(max_clock) / (config_.freq_ghz * 1e9);
  std::vector<LevelEnergyParams> level_params;
  for (const auto& lvl : config_.levels) level_params.push_back(lvl.energy);
  const PredictorEnergyParams pred_params = config_.scheme == Scheme::kCbf
                                                ? config_.cbf.energy
                                                : config_.redhip.energy;
  const EnergyLedger ledger(std::move(level_params), pred_params,
                            config_.cores, /*shared_last_level=*/true,
                            config_.charge_fill_energy);
  p.energy = ledger.price(events_, p.predictor, p.prefetch,
                          memory_accesses_ + memory_writebacks_,
                          config_.memory_energy_nj, p.elapsed_seconds,
                          predictor_leakage_w_);
  return p;
}

SimResult MulticoreSimulator::finalize_result() {
  if (obs_ != nullptr) {
    // Close the final (possibly partial) epoch at the run's end time — the
    // slowest core's clock, the same value exec_cycles reports.
    Cycles end = 0;
    for (const auto& cs : cores_) end = std::max(end, cs.clock);
    obs_->finish(end + global_stall_cycles_, obs_snapshot());
  }
  const bool time_finalize = obs_ != nullptr && obs_->timing_enabled();
  const auto finalize_start = time_finalize
                                  ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  SimResult r;
  r.levels = events_;
  r.memory_accesses = memory_accesses_;
  r.demand_memory_accesses = demand_memory_accesses_;
  r.memory_writebacks = memory_writebacks_;
  r.recal_stall_cycles = recal_stall_cycles_;
  r.predictor_disabled_refs = predictor_disabled_refs_;
  if (injector_) r.fault = injector_->stats();
  r.fault.audit_checks = audit_checks_;
  r.fault.invariant_violations = invariant_violations_;
  r.fault.recovery_recalibrations = recovery_recals_;
  r.fault.recovery_stall_cycles = recovery_stall_cycles_;
  for (const auto& cs : cores_) {
    // Re-apply the uniformly-accumulated stall offset (see CoreState::clock).
    const Cycles clock = cs.clock + global_stall_cycles_;
    r.core_cycles.push_back(clock);
    r.exec_cycles = std::max(r.exec_cycles, clock);
    r.total_core_cycles += clock;
    r.total_refs += cs.refs_done;
  }
  Priced priced = price_counters(r.exec_cycles);
  r.predictor = priced.predictor;
  r.prefetch = priced.prefetch;
  r.elapsed_seconds = priced.elapsed_seconds;
  r.energy = std::move(priced.energy);
  if (obs_ != nullptr) {
    r.epochs = obs_->epochs();
    r.obs_timing = obs_->timing();
    if (time_finalize) {
      r.obs_timing.finalize_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        finalize_start)
              .count();
    }
  }
  if (sampling_.enabled()) {
    r.sampling =
        build_sampling_report(sampling_, sample_windows_, sample_skipped_refs_,
                              sample_warmed_refs_, r.total_refs, config_.cores);
    r.warm_host_seconds = sample_warm_host_seconds_;
  }
  return r;
}

}  // namespace redhip
