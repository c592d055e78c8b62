#include "model/hierarchy_model.h"

#include <algorithm>
#include <stdexcept>

namespace redhip::model {
namespace {

std::uint32_t log2_of(std::uint64_t pow2) {
  std::uint32_t k = 0;
  while ((std::uint64_t{1} << k) < pow2) ++k;
  return k;
}

// Latency a probe of `spec` charges.  A phased level reads its tags first
// and the data only on a hit; a parallel level reads both at once but
// knows a miss at tag-compare time (a level without split tags folds the
// tag timing into its single access number).
Cycles hit_latency(const LevelSpec& spec) {
  const LevelEnergyParams& e = spec.energy;
  if (spec.phased) return e.tag_delay + e.data_delay;
  return std::max(e.tag_delay, e.data_delay);
}
Cycles miss_latency(const LevelSpec& spec) {
  const LevelEnergyParams& e = spec.energy;
  if (spec.phased) return e.tag_delay;
  return e.tag_delay > 0 ? e.tag_delay : e.data_delay;
}

}  // namespace

HierarchyModel::HierarchyModel(const HierarchyConfig& config,
                               std::vector<std::unique_ptr<TraceSource>> traces,
                               std::vector<std::uint32_t> cpi_centi)
    : config_(config) {
  config_.validate();
  levels_ = config_.num_levels();
  line_bytes_ = config_.levels[0].geom.line_bytes;
  const auto make_cache = [](const CacheGeometry& g) {
    Cache c;
    c.ways = g.ways;
    c.sets = g.size_bytes / g.line_bytes / g.ways;
    c.data.resize(c.sets);
    return c;
  };
  for (std::uint32_t lvl = 0; lvl + 1 < levels_; ++lvl) {
    for (CoreId c = 0; c < config_.cores; ++c) {
      private_.push_back(make_cache(config_.levels[lvl].geom));
    }
  }
  llc_ = make_cache(config_.llc().geom);
  r_.levels.resize(levels_);

  const bool exclusive = config_.inclusion == InclusionPolicy::kExclusive;
  if (config_.scheme == Scheme::kRedhip && !exclusive) {
    pt_.assign(config_.redhip.table_bits, false);
  }
  if (config_.scheme == Scheme::kCbf) {
    cbf_count_.assign(std::uint64_t{1} << config_.cbf.index_bits, 0);
    cbf_disabled_.assign(cbf_count_.size(), false);
  }
  if (config_.scheme == Scheme::kRedhip && exclusive) {
    excl_pt_.resize(levels_);
    for (std::uint32_t lvl = 1; lvl + 1 < levels_; ++lvl) {
      const std::uint64_t bits =
          config_.redhip_for_size(config_.levels[lvl].geom.size_bytes)
              .table_bits;
      excl_pt_[lvl].assign(config_.cores, LevelPt{});
      for (LevelPt& pt : excl_pt_[lvl]) pt.bits.assign(bits, false);
    }
    excl_llc_pt_.bits.assign(config_.redhip.table_bits, false);
  }
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault);
  }
  for (CoreId c = 0; c < config_.cores; ++c) {
    Core core;
    core.trace = std::move(traces[c]);
    core.cpi_centi = cpi_centi[c];
    if (config_.prefetch) {
      core.rpt.resize(std::uint64_t{1} << config_.prefetcher.index_bits);
    }
    cores_.push_back(std::move(core));
  }
}

// ------------------------------------------------------------ set plumbing

HierarchyModel::Cache& HierarchyModel::cache(std::uint32_t lvl, CoreId core) {
  return is_llc(lvl) ? llc_ : private_[lvl * config_.cores + core];
}

const HierarchyModel::Cache& HierarchyModel::cache(std::uint32_t lvl,
                                                   CoreId core) const {
  return is_llc(lvl) ? llc_ : private_[lvl * config_.cores + core];
}

HierarchyModel::Set& HierarchyModel::set_for(std::uint32_t lvl, CoreId core,
                                             LineAddr line) {
  Cache& c = cache(lvl, core);
  return c.data[line % c.sets];
}

ModelLine* HierarchyModel::find(std::uint32_t lvl, CoreId core,
                                LineAddr line) {
  for (ModelLine& l : set_for(lvl, core, line)) {
    if (l.line == line) return &l;
  }
  return nullptr;
}

bool HierarchyModel::remove(std::uint32_t lvl, CoreId core, LineAddr line,
                            bool* was_dirty) {
  Set& s = set_for(lvl, core, line);
  for (auto it = s.begin(); it != s.end(); ++it) {
    if (it->line != line) continue;
    *was_dirty = it->dirty;
    s.erase(it);
    return true;
  }
  return false;
}

bool HierarchyModel::push(std::uint32_t lvl, CoreId core,
                          const ModelLine& line, ModelLine* victim) {
  if (contains(lvl, core, line.line)) {
    throw std::logic_error("model: duplicate line pushed at level " +
                           std::to_string(lvl));
  }
  Set& s = set_for(lvl, core, line.line);
  s.insert(s.begin(), line);
  if (s.size() <= cache(lvl, core).ways) return false;
  *victim = s.back();
  s.pop_back();
  return true;
}

const std::vector<ModelLine>& HierarchyModel::set_contents(
    std::uint32_t level, CoreId core, std::uint64_t set) const {
  return cache(level, core).data[set];
}

std::uint64_t HierarchyModel::sets(std::uint32_t level) const {
  return cache(level, 0).sets;
}

// ---------------------------------------------------------------- run loop

ModelResult HierarchyModel::run(std::uint64_t max_refs_per_core) {
  const bool auto_disable =
      config_.auto_disable.enabled && has_llc_predictor();
  for (Core& c : cores_) c.done = max_refs_per_core == 0;
  while (true) {
    // The core with the smallest clock runs next; ties go to the lowest id.
    CoreId best = 0;
    bool any = false;
    for (CoreId c = 0; c < config_.cores; ++c) {
      if (cores_[c].done) continue;
      if (!any || cores_[c].clock < cores_[best].clock) best = c;
      any = true;
    }
    if (!any) break;
    Core& core = cores_[best];
    MemRef ref;
    if (!core.trace->next(ref)) {
      core.done = true;
      continue;
    }
    if (injector_ != nullptr) {
      injector_->maybe_perturb(ref);
      inject_pt_faults();
    }
    // Non-memory instructions at the core's CPI, in hundredths of a cycle
    // with the fractional remainder carried to the next reference.
    core.cpi_remainder += ref.gap * core.cpi_centi;
    core.clock += core.cpi_remainder / 100;
    core.cpi_remainder %= 100;
    const std::uint64_t l1_misses = r_.levels[0].misses;
    core.clock += access(best, ref);
    if (config_.prefetch && r_.levels[0].misses != l1_misses) {
      prefetch(best, ref);
    }
    if (auto_disable) {
      if (!predictor_on_) ++r_.predictor_disabled_refs;
      if (++epoch_refs_ >= config_.auto_disable.epoch_refs) {
        evaluate_auto_disable();
      }
    }
    schedule_.push_back(best);
    if (++core.refs >= max_refs_per_core) core.done = true;
  }

  ModelResult out = r_;
  if (config_.scheme == Scheme::kRedhip &&
      config_.inclusion == InclusionPolicy::kExclusive) {
    for (const auto& per_core : excl_pt_) {
      for (const LevelPt& pt : per_core) out.predictor += pt.events;
    }
    out.predictor += excl_llc_pt_.events;
  } else {
    out.predictor = llc_pred_events_;
  }
  const FaultStats audit = out.fault;
  out.fault = injector_ != nullptr ? injector_->stats() : FaultStats{};
  out.fault.audit_checks = audit.audit_checks;
  out.fault.invariant_violations = audit.invariant_violations;
  out.fault.recovery_recalibrations = audit.recovery_recalibrations;
  out.fault.recovery_stall_cycles = audit.recovery_stall_cycles;
  for (const Core& c : cores_) {
    out.core_cycles.push_back(c.clock);
    out.total_refs += c.refs;
  }
  return out;
}

void HierarchyModel::stall_all(Cycles cycles) {
  // Recalibration and recovery freeze every core, finished ones included.
  for (Core& c : cores_) c.clock += cycles;
}

// ------------------------------------------------------------ access walk

Cycles HierarchyModel::access(CoreId core, const MemRef& ref) {
  const LineAddr line = ref.addr / line_bytes_;
  switch (config_.inclusion) {
    case InclusionPolicy::kInclusive:
      return access_inclusive(core, line, ref.is_write);
    case InclusionPolicy::kHybrid:
      return access_hybrid(core, line, ref.is_write);
    case InclusionPolicy::kExclusive:
      return access_exclusive(core, line, ref.is_write);
  }
  return 0;
}

HierarchyModel::Probe HierarchyModel::probe(std::uint32_t lvl, CoreId core,
                                            LineAddr line, bool is_write) {
  const LevelSpec& spec = config_.levels[lvl];
  LevelEvents& ev = r_.levels[lvl];
  ++ev.accesses;
  ++ev.tag_probes;
  Set& s = set_for(lvl, core, line);
  auto it = std::find_if(s.begin(), s.end(),
                         [line](const ModelLine& l) { return l.line == line; });
  if (it == s.end()) {
    // A phased miss never reads the data array; a parallel one always does.
    if (!spec.phased) ++ev.data_probes;
    ++ev.misses;
    return {false, miss_latency(spec)};
  }
  ++ev.data_probes;
  ++ev.hits;
  ModelLine hit = *it;
  s.erase(it);
  if (hit.prefetched && config_.prefetch) ++r_.prefetch.useful;
  hit.prefetched = false;  // the first demand hit consumes the mark
  if (is_write && lvl == 0 && config_.model_writebacks) hit.dirty = true;
  s.insert(s.begin(), hit);
  return {true, hit_latency(spec)};
}

void HierarchyModel::fill(std::uint32_t lvl, CoreId core, LineAddr line,
                          bool prefetched, bool dirty) {
  if (ModelLine* resident = find(lvl, core, line)) {
    // Already there (a prefetch racing a demand fill, or a bypass past a
    // corrupted table): the copy only picks up the dirty bit.
    if (dirty) resident->dirty = true;
    return;
  }
  ModelLine victim;
  const bool evicted = push(lvl, core, {line, dirty, prefetched}, &victim);
  ++r_.levels[lvl].fills;
  if (is_llc(lvl) && evicted) predictor_evict(victim.line);
  if (is_llc(lvl)) predictor_fill(line);
  if (!evicted) return;
  ++r_.levels[lvl].evictions;
  if (victim.prefetched && config_.prefetch) ++r_.prefetch.useless;
  if (victim.dirty) writeback_victim(lvl, core, victim.line);
  if (is_llc(lvl)) {
    // The LLC is inclusive under both the inclusive and hybrid policies:
    // its victim leaves every private cache of every core.
    for (CoreId c = 0; c < config_.cores; ++c) {
      back_invalidate(lvl, c, victim.line);
    }
  } else if (config_.inclusion == InclusionPolicy::kInclusive) {
    back_invalidate(lvl, core, victim.line);
  }
}

void HierarchyModel::writeback_victim(std::uint32_t lvl, CoreId core,
                                      LineAddr victim) {
  if (!config_.model_writebacks) return;
  if (is_llc(lvl)) {
    ++r_.memory_writebacks;
    return;
  }
  ++r_.levels[lvl + 1].writebacks;
  if (ModelLine* below = find(lvl + 1, core, victim)) below->dirty = true;
}

void HierarchyModel::back_invalidate(std::uint32_t below, CoreId core,
                                     LineAddr victim) {
  // Every level above the evicting one, all of them: a dirty copy writes
  // back to the level under the evicting one, or to memory past the LLC.
  for (std::uint32_t lvl = 0; lvl < below; ++lvl) {
    bool dirty = false;
    if (!remove(lvl, core, victim, &dirty)) continue;
    ++r_.levels[lvl].invalidations;
    if (!dirty || !config_.model_writebacks) continue;
    if (below + 1 < levels_) {
      ++r_.levels[below + 1].writebacks;
      if (ModelLine* l = find(below + 1, core, victim)) l->dirty = true;
    } else {
      ++r_.memory_writebacks;
    }
  }
}

void HierarchyModel::cascade(CoreId core, LineAddr line, std::uint32_t last,
                             bool dirty) {
  // Exclusive chain: insert at L1, each victim moves one level down with
  // its dirty bit, and the victim of `last` leaves the chain.
  ModelLine incoming{line, dirty && config_.model_writebacks, false};
  const bool level_pts = config_.scheme == Scheme::kRedhip &&
                         config_.inclusion == InclusionPolicy::kExclusive;
  for (std::uint32_t lvl = 0; lvl <= last; ++lvl) {
    ModelLine victim;
    const bool evicted = push(lvl, core, incoming, &victim);
    ++r_.levels[lvl].fills;
    if (lvl >= 1 && level_pts) {
      LevelPt& pt = level_pt(lvl, core);
      ++pt.events.updates;
      pt.bits[incoming.line % pt.bits.size()] = true;
    }
    if (!evicted) return;
    ++r_.levels[lvl].evictions;
    incoming = {victim.line, victim.dirty, false};
  }
  if (!incoming.dirty || !config_.model_writebacks) return;
  if (last + 1 == levels_) {
    ++r_.memory_writebacks;  // dropped past an exclusive LLC
  } else {
    // The hybrid chain's victim is still in the inclusive LLC, which
    // absorbs the dirty data.
    ++r_.levels[last + 1].writebacks;
    if (ModelLine* l = find(last + 1, core, incoming.line)) l->dirty = true;
  }
}

Cycles HierarchyModel::access_inclusive(CoreId core, LineAddr line,
                                        bool is_write) {
  const bool dirty = is_write && config_.model_writebacks;
  const Probe l1 = probe(0, core, line, is_write);
  Cycles lat = l1.latency;
  if (l1.hit) return lat;
  note_l1_miss();
  if (predict_absent(line, lat) && audit_allows_bypass(line)) {
    // Bypass: skip every lower level, fetch from memory, fill everything.
    for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
      ++r_.levels[lvl].skipped;
    }
    ++r_.memory_accesses;
    ++r_.demand_memory_accesses;
    lat += config_.memory_latency;
    for (std::uint32_t lvl = levels_; lvl-- > 0;) {
      fill(lvl, core, line, false, dirty && lvl == 0);
    }
    return lat;
  }
  for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
    const Probe p = probe(lvl, core, line, false);
    lat += p.latency;
    if (!p.hit) continue;
    if (has_llc_predictor()) ++llc_pred_events_.true_positives;
    for (std::uint32_t l = lvl; l-- > 0;) {
      fill(l, core, line, false, dirty && l == 0);
    }
    return lat;
  }
  if (has_llc_predictor()) ++llc_pred_events_.false_positives;
  lat += config_.memory_latency;
  ++r_.memory_accesses;
  ++r_.demand_memory_accesses;
  for (std::uint32_t lvl = levels_; lvl-- > 0;) {
    fill(lvl, core, line, false, dirty && lvl == 0);
  }
  return lat;
}

Cycles HierarchyModel::access_hybrid(CoreId core, LineAddr line,
                                     bool is_write) {
  const bool dirty = is_write && config_.model_writebacks;
  const std::uint32_t llc = levels_ - 1;
  const Probe l1 = probe(0, core, line, is_write);
  Cycles lat = l1.latency;
  if (l1.hit) return lat;
  note_l1_miss();
  if (predict_absent(line, lat) && audit_allows_bypass(line)) {
    for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
      ++r_.levels[lvl].skipped;
    }
    ++r_.memory_accesses;
    ++r_.demand_memory_accesses;
    lat += config_.memory_latency;
    fill(llc, core, line, false, false);
    cascade(core, line, llc - 1, dirty);
    return lat;
  }
  for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
    const Probe p = probe(lvl, core, line, false);
    lat += p.latency;
    if (!p.hit) continue;
    if (has_llc_predictor()) ++llc_pred_events_.true_positives;
    bool was_dirty = false;
    if (!is_llc(lvl)) {
      // Private levels are exclusive: the line moves up, it is not copied.
      remove(lvl, core, line, &was_dirty);
      ++r_.levels[lvl].invalidations;
    }
    cascade(core, line, llc - 1, dirty || was_dirty);
    return lat;
  }
  if (has_llc_predictor()) ++llc_pred_events_.false_positives;
  lat += config_.memory_latency;
  ++r_.memory_accesses;
  ++r_.demand_memory_accesses;
  fill(llc, core, line, false, false);
  cascade(core, line, llc - 1, dirty);
  return lat;
}

Cycles HierarchyModel::access_exclusive(CoreId core, LineAddr line,
                                        bool is_write) {
  const bool dirty = is_write && config_.model_writebacks;
  const Probe l1 = probe(0, core, line, is_write);
  Cycles lat = l1.latency;
  if (l1.hit) return lat;
  note_l1_miss();
  // Every level's table is read at once after the L1 miss.
  const bool redhip = config_.scheme == Scheme::kRedhip;
  std::vector<bool> present(levels_, true);
  for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
    if (redhip) {
      LevelPt& pt = level_pt(lvl, core);
      ++pt.events.lookups;
      present[lvl] = pt.bits[line % pt.bits.size()];
      ++(present[lvl] ? pt.events.predicted_present
                      : pt.events.predicted_absent);
    } else if (config_.scheme == Scheme::kOracle) {
      present[lvl] = contains(lvl, core, line);
    }
  }
  if (redhip) lat += config_.redhip.energy.total_delay();
  for (std::uint32_t lvl = 1; lvl < levels_; ++lvl) {
    if (!present[lvl]) {
      ++r_.levels[lvl].skipped;
      continue;
    }
    const Probe p = probe(lvl, core, line, false);
    lat += p.latency;
    if (redhip) {
      LevelPt& pt = level_pt(lvl, core);
      ++(p.hit ? pt.events.true_positives : pt.events.false_positives);
    }
    if (!p.hit) continue;
    bool was_dirty = false;
    remove(lvl, core, line, &was_dirty);
    ++r_.levels[lvl].invalidations;
    cascade(core, line, levels_ - 1, dirty || was_dirty);
    return lat;
  }
  lat += config_.memory_latency;
  ++r_.memory_accesses;
  ++r_.demand_memory_accesses;
  cascade(core, line, levels_ - 1, dirty);
  return lat;
}

// --------------------------------------------------------------- prefetch

std::vector<LineAddr> HierarchyModel::observe(CoreId core, const MemRef& ref) {
  // Reference prediction table (Fu, Patel, Janssens): per-PC last address
  // and stride; initial -> transient -> steady on matching strides, and a
  // steady entry that mispredicts only drops back to transient.
  ++r_.prefetch.table_lookups;
  const StridePrefetcherConfig& pc = config_.prefetcher;
  RptEntry& e = cores_[core].rpt[ref.pc % cores_[core].rpt.size()];
  const std::uint32_t tag = ref.pc >> pc.index_bits;
  std::vector<LineAddr> out;
  if (!e.valid || e.tag != tag) {
    e = {tag, true, 0, ref.addr, 0};
    return out;
  }
  const std::int64_t stride = static_cast<std::int64_t>(ref.addr) -
                              static_cast<std::int64_t>(e.last_addr);
  const bool match = stride != 0 && stride == e.stride;
  if (e.state == 2) {
    if (!match) e.state = 1;
  } else {
    e.state = match ? 2 : 1;
  }
  if (!match) e.stride = stride;
  e.last_addr = ref.addr;
  if (e.state != 2 || e.stride == 0) return out;
  const LineAddr own = ref.addr / line_bytes_;
  for (std::uint32_t i = 0; i < pc.degree; ++i) {
    const Addr target = static_cast<Addr>(
        static_cast<std::int64_t>(ref.addr) +
        e.stride * static_cast<std::int64_t>(pc.distance + i));
    const LineAddr line = target / line_bytes_;
    if (line == own || (!out.empty() && line == out.back())) continue;
    out.push_back(line);
  }
  return out;
}

void HierarchyModel::prefetch(CoreId core, const MemRef& ref) {
  for (const LineAddr q : observe(core, ref)) {
    // Filtered against L1 and L2 with one tag probe.
    ++r_.levels[1].tag_probes;
    if (contains(0, core, q) || contains(1, core, q)) {
      ++r_.prefetch.redundant;
      continue;
    }
    ++r_.prefetch.issued;
    bool to_memory = false;
    std::uint32_t found = 0;
    if (has_llc_predictor()) {
      Cycles ignored = 0;
      to_memory = predict_absent(q, ignored) && audit_allows_bypass(q);
    }
    if (!to_memory) {
      for (std::uint32_t lvl = 2; lvl < levels_; ++lvl) {
        ++r_.levels[lvl].tag_probes;  // tag-only until the hit
        if (contains(lvl, core, q)) {
          ++r_.levels[lvl].data_probes;
          found = lvl;
          break;
        }
      }
      to_memory = found == 0;
      if (has_llc_predictor()) {
        ++(found != 0 ? llc_pred_events_.true_positives
                      : llc_pred_events_.false_positives);
      }
    }
    if (to_memory) {
      ++r_.memory_accesses;
      found = levels_;
    }
    // Down-first into every level above the source, stopping at L2; only
    // the L2 copy carries the prefetched mark.
    for (std::uint32_t lvl = found; lvl-- > 1;) {
      fill(lvl, core, q, lvl == 1, false);
    }
  }
}

// ---------------------------------------------------------- LLC predictor

bool HierarchyModel::has_llc_predictor() const {
  if (config_.inclusion == InclusionPolicy::kExclusive) return false;
  return config_.scheme == Scheme::kRedhip || config_.scheme == Scheme::kCbf ||
         config_.scheme == Scheme::kOracle ||
         config_.scheme == Scheme::kPartialTag;
}

bool HierarchyModel::predict_absent(LineAddr line, Cycles& latency) {
  if (!has_llc_predictor() || !predictor_on_) return false;
  bool present = false;
  switch (config_.scheme) {
    case Scheme::kRedhip:
      ++llc_pred_events_.lookups;
      present = pt_[line % pt_.size()];
      latency += config_.redhip.energy.total_delay();
      break;
    case Scheme::kCbf: {
      ++llc_pred_events_.lookups;
      std::uint64_t h = 0;
      for (LineAddr x = line; x != 0; x >>= config_.cbf.index_bits) {
        h ^= x % cbf_count_.size();
      }
      present = cbf_disabled_[h] || cbf_count_[h] > 0;
      latency += config_.cbf.energy.total_delay();
      break;
    }
    case Scheme::kPartialTag: {
      ++llc_pred_events_.lookups;
      const std::uint64_t bits = log2_of(llc_.sets);
      const std::uint64_t mask =
          (std::uint64_t{1} << config_.partial_tag.partial_bits) - 1;
      for (const ModelLine& l : set_for(levels_ - 1, 0, line)) {
        if (((l.line >> bits) & mask) == ((line >> bits) & mask)) {
          present = true;
        }
      }
      latency += config_.partial_tag.energy.total_delay();
      break;
    }
    case Scheme::kOracle:  // free and exact; its lookups are not counted
      present = contains(levels_ - 1, 0, line);
      break;
    default:
      break;
  }
  ++(present ? llc_pred_events_.predicted_present
             : llc_pred_events_.predicted_absent);
  return !present;
}

void HierarchyModel::predictor_fill(LineAddr line) {
  if (!has_llc_predictor()) return;
  if (config_.scheme == Scheme::kRedhip) {
    ++llc_pred_events_.updates;
    pt_[line % pt_.size()] = true;
  } else if (config_.scheme == Scheme::kCbf) {
    ++llc_pred_events_.updates;
    std::uint64_t h = 0;
    for (LineAddr x = line; x != 0; x >>= config_.cbf.index_bits) {
      h ^= x % cbf_count_.size();
    }
    if (cbf_disabled_[h]) return;
    if (cbf_count_[h] + 1 == (1u << config_.cbf.counter_bits)) {
      cbf_disabled_[h] = true;  // saturated: stuck at "present" for good
    } else {
      ++cbf_count_[h];
    }
  } else if (config_.scheme == Scheme::kPartialTag) {
    ++llc_pred_events_.updates;
  }
}

void HierarchyModel::predictor_evict(LineAddr victim) {
  if (!has_llc_predictor()) return;
  if (config_.scheme == Scheme::kRedhip) {
    // A 1-bit entry cannot forget one line, except in the "recalibrate
    // after every L1 miss" configuration, which keeps the table exact by
    // rebuilding the victim's set (its stall is part of the per-miss one).
    if (config_.redhip.recal_interval_l1_misses == 1) {
      recalibrate_pt_sets(victim % llc_.sets, 1);
    }
  } else if (config_.scheme == Scheme::kCbf) {
    ++llc_pred_events_.updates;
    std::uint64_t h = 0;
    for (LineAddr x = victim; x != 0; x >>= config_.cbf.index_bits) {
      h ^= x % cbf_count_.size();
    }
    if (!cbf_disabled_[h] && cbf_count_[h] > 0) --cbf_count_[h];
  } else if (config_.scheme == Scheme::kPartialTag) {
    ++llc_pred_events_.updates;
  }
}

void HierarchyModel::note_l1_miss() {
  if (!predictor_on_) return;  // gated off: recalibration pauses too
  Cycles stall = 0;
  const RedhipConfig& rc = config_.redhip;
  if (config_.inclusion == InclusionPolicy::kExclusive) {
    if (config_.scheme != Scheme::kRedhip || rc.recal_interval_l1_misses == 0) {
      return;
    }
    if (++excl_l1_misses_ < rc.recal_interval_l1_misses) return;
    excl_l1_misses_ = 0;
    // Every table rebuilds from its own level; the slowest one stalls.
    for (std::uint32_t lvl = 1; lvl + 1 < levels_; ++lvl) {
      for (CoreId c = 0; c < config_.cores; ++c) {
        recalibrate_level_pt(excl_pt_[lvl][c], cache(lvl, c));
        stall = std::max<Cycles>(
            stall, (cache(lvl, c).sets + rc.banks - 1) / rc.banks);
      }
    }
    recalibrate_level_pt(excl_llc_pt_, llc_);
    stall = std::max<Cycles>(stall, (llc_.sets + rc.banks - 1) / rc.banks);
  } else {
    if (config_.scheme != Scheme::kRedhip) return;
    const std::uint64_t interval = rc.recal_interval_l1_misses;
    if (interval == 0) return;
    if (interval == 1) {
      // Exact after every miss (kept so by predictor_evict): one cycle.
      ++llc_pred_events_.recalibrations;
      stall = 1;
    } else if (rc.recal_mode == RecalMode::kBatch) {
      if (++pt_misses_since_recal_ < interval) return;
      pt_misses_since_recal_ = 0;
      stall = recalibrate_pt();
    } else {
      // Rolling: the whole table once per interval, a few sets per miss,
      // with the fractional set credit carried exactly.
      pt_rolling_credit_ += llc_.sets;
      std::uint64_t todo = pt_rolling_credit_ / interval;
      pt_rolling_credit_ %= interval;
      while (todo > 0) {
        const std::uint64_t chunk =
            std::min(todo, llc_.sets - pt_rolling_cursor_);
        stall += recalibrate_pt_sets(pt_rolling_cursor_, chunk);
        pt_rolling_cursor_ += chunk;
        if (pt_rolling_cursor_ == llc_.sets) {
          pt_rolling_cursor_ = 0;
          ++llc_pred_events_.recalibrations;
        }
        todo -= chunk;
      }
    }
  }
  if (stall == 0) return;
  r_.recal_stall_cycles += stall;
  stall_all(stall);
}

Cycles HierarchyModel::recalibrate_pt() {
  ++llc_pred_events_.recalibrations;
  std::fill(pt_.begin(), pt_.end(), false);
  for (const Set& s : llc_.data) {
    for (const ModelLine& l : s) pt_[l.line % pt_.size()] = true;
  }
  llc_pred_events_.recal_sets_read += llc_.sets;
  llc_pred_events_.recal_words_written += pt_.size() / 64;
  return (llc_.sets + config_.redhip.banks - 1) / config_.redhip.banks;
}

Cycles HierarchyModel::recalibrate_pt_sets(std::uint64_t first,
                                           std::uint64_t count) {
  const std::uint32_t banks = config_.redhip.banks;
  const Cycles stall = (count + banks - 1) / banks;
  if (injector_ != nullptr && injector_->fires(FaultSite::kRecalDrop)) {
    ++injector_->stats().recal_chunks_dropped;  // lost in flight, still paid
    return stall;
  }
  for (std::uint64_t s = first; s < first + count; ++s) {
    // Every table entry a line of set s can hash to, rebuilt exactly.
    for (std::uint64_t i = 0; i < pt_.size(); ++i) {
      if (i % llc_.sets == s) pt_[i] = false;
    }
    for (const ModelLine& l : llc_.data[s]) pt_[l.line % pt_.size()] = true;
  }
  llc_pred_events_.recal_sets_read += count;
  llc_pred_events_.recal_words_written += count;
  return stall;
}

HierarchyModel::LevelPt& HierarchyModel::level_pt(std::uint32_t lvl,
                                                  CoreId core) {
  return is_llc(lvl) ? excl_llc_pt_ : excl_pt_[lvl][core];
}

void HierarchyModel::recalibrate_level_pt(LevelPt& pt, const Cache& covered) {
  ++pt.events.recalibrations;
  std::fill(pt.bits.begin(), pt.bits.end(), false);
  for (const Set& s : covered.data) {
    for (const ModelLine& l : s) pt.bits[l.line % pt.bits.size()] = true;
  }
  pt.events.recal_sets_read += covered.sets;
  pt.events.recal_words_written += pt.bits.size() / 64;
}

bool HierarchyModel::audit_allows_bypass(LineAddr line) {
  if (!config_.audit.enabled) return true;
  FaultStats& f = r_.fault;
  ++f.audit_checks;
  if (!contains(levels_ - 1, 0, line)) return true;
  ++f.invariant_violations;
  switch (config_.audit.policy) {
    case RecoveryPolicy::kAbortRetry:
      if (injector_ != nullptr && config_.fault.transient) {
        throw TransientFaultError(
            "invariant violation: predicted-absent line is LLC-resident; "
            "aborting the run for a reseeded retry");
      }
      throw std::runtime_error(
          "invariant violation: predicted-absent line is LLC-resident "
          "(deterministic fault; not retryable)");
    case RecoveryPolicy::kRecalibrate:
      if (config_.scheme == Scheme::kRedhip) {
        const Cycles stall = recalibrate_pt();
        ++f.recovery_recalibrations;
        f.recovery_stall_cycles += stall;
        r_.recal_stall_cycles += stall;
        stall_all(stall);
      }
      break;
    case RecoveryPolicy::kCountOnly:
      break;
  }
  return false;  // walk the hierarchy instead of bypassing
}

void HierarchyModel::inject_pt_faults() {
  if (config_.scheme != Scheme::kRedhip ||
      config_.inclusion == InclusionPolicy::kExclusive) {
    return;
  }
  // A strike only counts when it actually flips the bit.
  if (injector_->fires(FaultSite::kPtBitClear)) {
    const std::uint64_t i = injector_->pick(pt_.size());
    if (pt_[i]) {
      pt_[i] = false;
      ++injector_->stats().pt_bits_cleared;
    }
  }
  if (injector_->fires(FaultSite::kPtBitSet)) {
    const std::uint64_t i = injector_->pick(pt_.size());
    if (!pt_[i]) {
      pt_[i] = true;
      ++injector_->stats().pt_bits_set;
    }
  }
}

void HierarchyModel::evaluate_auto_disable() {
  const auto& ad = config_.auto_disable;
  epoch_refs_ = 0;
  if (!predictor_on_) {
    if (--disabled_left_ > 0) return;
    // Probe epoch: back on, with a full rebuild of the stale table.
    predictor_on_ = true;
    if (config_.scheme == Scheme::kRedhip) {
      const Cycles stall = recalibrate_pt();
      r_.recal_stall_cycles += stall;
      stall_all(stall);
    }
  } else {
    const std::uint64_t misses = r_.levels[0].misses - epoch_misses0_;
    const std::uint64_t lookups = llc_pred_events_.lookups - epoch_lookups0_;
    const std::uint64_t absents =
        llc_pred_events_.predicted_absent - epoch_absents0_;
    const std::uint64_t miss_ppm = misses * 1'000'000 / ad.epoch_refs;
    const std::uint64_t bypass_ppm =
        lookups == 0 ? 0 : absents * 1'000'000 / lookups;
    if (miss_ppm < ad.min_l1_miss_ppm || bypass_ppm < ad.min_bypass_ppm) {
      predictor_on_ = false;
      disabled_left_ = backoff_;
      backoff_ = std::min(backoff_ * 2, ad.max_backoff_epochs);
    } else {
      backoff_ = 1;
    }
  }
  epoch_misses0_ = r_.levels[0].misses;
  epoch_lookups0_ = llc_pred_events_.lookups;
  epoch_absents0_ = llc_pred_events_.predicted_absent;
}

}  // namespace redhip::model
