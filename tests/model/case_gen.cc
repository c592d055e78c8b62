#include "model/case_gen.h"

#include <algorithm>

#include "common/rng.h"
#include "energy/cacti_lite.h"
#include "harness/config_file.h"

namespace redhip::model {
namespace {

std::uint64_t pow2_at_least(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint32_t log2_of(std::uint64_t pow2) {
  std::uint32_t k = 0;
  while ((std::uint64_t{1} << k) < pow2) ++k;
  return k;
}

HierarchyConfig draw_config(Xoshiro256& rng) {
  HierarchyConfig c;
  const std::uint64_t core_draw = rng.below(100);
  c.cores = static_cast<std::uint32_t>(core_draw < 45   ? rng.range(1, 4)
                                       : core_draw < 80 ? rng.range(5, 8)
                                                        : rng.range(9, 12));
  const std::uint32_t n = static_cast<std::uint32_t>(rng.range(2, 5));
  const std::uint32_t line_choices[] = {64, 64, 64, 32, 128, 256};
  const std::uint32_t line_bytes = line_choices[rng.below(6)];

  c.inclusion = static_cast<InclusionPolicy>(rng.below(3));
  const bool exclusive = c.inclusion == InclusionPolicy::kExclusive;
  c.scheme = static_cast<Scheme>(rng.below(6));
  if (exclusive) {
    const Scheme allowed[] = {Scheme::kBase, Scheme::kRedhip, Scheme::kOracle};
    c.scheme = allowed[rng.below(3)];
  }
  // An exclusive ReDHiP machine scales a table per level by size ratio,
  // which must stay a power of two: power-of-two ways keep it so.
  const bool pow2_ways = exclusive && c.scheme == Scheme::kRedhip;

  c.levels.clear();
  for (std::uint32_t lvl = 0; lvl < n; ++lvl) {
    const std::uint32_t ways =
        pow2_ways ? 1u << rng.below(5)
                  : static_cast<std::uint32_t>(rng.range(1, 16));
    // The energy model prices levels from 1 KiB up, which sets the floor.
    const std::uint64_t min_lines = (1024 + line_bytes - 1) / line_bytes;
    std::uint64_t sets = pow2_at_least((min_lines + ways - 1) / ways);
    sets <<= rng.below(lvl + 1 == n ? 4 : 3);
    // One L1 in six has 128-512 sets, more than the engine's L1 memo has
    // slots, so lines of different sets share a memo slot.
    if (lvl == 0 && rng.below(6) == 0) {
      sets = std::uint64_t{128} << rng.below(3);
    }
    LevelSpec spec;
    spec.geom.size_bytes = sets * ways * line_bytes;
    spec.geom.line_bytes = line_bytes;
    spec.geom.ways = ways;
    spec.geom.banks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(sets, 1u << rng.below(4)));
    spec.energy = CactiLite::cache_params(spec.geom.size_bytes,
                                          rng.below(3) == 0);
    spec.phased = rng.below(4) == 0;
    c.levels.push_back(spec);
  }

  // Predictor tables small enough to alias, saturate and go stale quickly.
  const std::uint32_t llc_set_bits = log2_of(c.llc().geom.sets());
  c.redhip.table_bits = std::uint64_t{1}
                        << std::max<std::uint64_t>(
                               6, llc_set_bits + 1 + rng.below(4));
  const std::uint64_t interval_draw = rng.below(10);
  c.redhip.recal_interval_l1_misses = interval_draw == 0   ? 0
                                      : interval_draw <= 2 ? 1
                                                           : rng.range(2, 60);
  c.redhip.recal_mode = rng.below(2) ? RecalMode::kRolling : RecalMode::kBatch;
  c.redhip.banks = 1u << rng.below(4);
  c.cbf.index_bits = static_cast<std::uint32_t>(rng.range(1, 8));
  c.cbf.counter_bits = static_cast<std::uint32_t>(rng.range(1, 3));
  c.partial_tag.partial_bits = static_cast<std::uint32_t>(rng.range(1, 8));

  c.prefetch = c.inclusion == InclusionPolicy::kInclusive && rng.below(5) < 2;
  c.prefetcher.index_bits = static_cast<std::uint32_t>(rng.range(4, 6));
  c.prefetcher.degree = static_cast<std::uint32_t>(rng.range(1, 4));
  c.prefetcher.distance = static_cast<std::uint32_t>(rng.range(1, 3));

  c.memory_latency = rng.below(3) == 0 ? 0 : rng.below(200);
  c.memory_energy_nj = static_cast<double>(rng.below(100)) / 8.0;
  c.charge_fill_energy = rng.below(2) == 0;
  c.model_writebacks = rng.below(2) == 0;
  c.freq_ghz = 1.0 + static_cast<double>(rng.below(40)) / 10.0;
  c.seed = rng.next();

  if (!exclusive && rng.below(10) < 3) {
    c.auto_disable.enabled = true;
    c.auto_disable.epoch_refs = rng.range(20, 500);
    c.auto_disable.min_l1_miss_ppm =
        static_cast<std::uint32_t>(rng.below(300'000));
    c.auto_disable.min_bypass_ppm =
        static_cast<std::uint32_t>(rng.below(300'000));
  }
  if (rng.below(5) == 0) {
    c.fault.enabled = true;
    c.fault.rate_per_mref = static_cast<std::uint32_t>(rng.range(500, 20'000));
    c.fault.seed = rng.next();
    c.fault.transient = rng.below(2) == 0;
    // PT sites need the shared-LLC ReDHiP table; trace faults go anywhere.
    const bool pt_sites = c.scheme == Scheme::kRedhip && !exclusive;
    c.fault.site_mask =
        pt_sites ? static_cast<std::uint32_t>(rng.range(1, kAllFaultSites))
                 : static_cast<std::uint32_t>(FaultSite::kTraceAddr);
  }
  if (!exclusive && rng.below(20) < 7) {
    c.audit.enabled = true;
    c.audit.policy = static_cast<RecoveryPolicy>(rng.below(3));
  }
  // Known engine bug, excluded here: on a hybrid hierarchy, a bypass past
  // a PT bit an injected fault cleared, with no auditor to catch it,
  // cascades the line into private levels that may still hold it
  // (insert_with_cascade fills without a residency check), leaving a
  // duplicate tag.  Hybrid machines with PT fault sites always audit.
  // See ROADMAP.md.
  const std::uint32_t pt_sites =
      kAllFaultSites & ~static_cast<std::uint32_t>(FaultSite::kTraceAddr);
  if (c.inclusion == InclusionPolicy::kHybrid && c.fault.enabled &&
      (c.fault.site_mask & pt_sites) != 0) {
    c.audit.enabled = true;
  }
  // Through the text format and back: the drawn machine is exactly what
  // its config_to_text printout describes.
  return parse_config_text(config_to_text(c));
}

// One core's references: strided streams under fixed PCs (what the stride
// prefetcher locks onto), a private and a shared pool of lines sized
// against the LLC (conflict misses, cross-core back-invalidation), and
// repeats of the last address (the same-line case).  Regions start above
// bit 40, so a trace fault (which flips one of bits 0..39) never moves a
// reference into another core's region, and end below bit 52, so no
// stride times the prefetch distance overflows a signed 64-bit offset.
//
// Known engine bug, excluded here: on an exclusive hierarchy with more
// than one core, a line two cores both hold in their private levels is
// cascaded into the shared LLC twice (insert_with_cascade fills without a
// residency check), leaving two ways with the same tag.  Exclusive
// multi-core cases therefore draw no shared lines.  See ROADMAP.md.
std::vector<MemRef> draw_trace(Xoshiro256& rng, const HierarchyConfig& c,
                               CoreId core, std::uint64_t length) {
  const bool share = c.inclusion != InclusionPolicy::kExclusive || c.cores == 1;
  const std::uint64_t line = c.levels[0].geom.line_bytes;
  const std::uint64_t llc_lines = c.llc().geom.lines();
  const std::uint64_t private_pool = rng.range(4, 2 * llc_lines);
  const std::uint64_t shared_pool = rng.range(4, 2 * llc_lines);
  const Addr private_base = (Addr{core} + 1) << 41;
  const Addr shared_base = Addr{1} << 50;
  struct Stream {
    std::uint32_t pc;
    Addr next;
    std::int64_t stride;
  } streams[3];
  const std::int64_t strides[] = {8, 64, -64, 128, 256, -8, 1024, -512};
  for (std::uint32_t s = 0; s < 3; ++s) {
    streams[s] = {0x400000u + 64 * s + (core << 12),
                  private_base + (Addr{s} << 24) + rng.below(1u << 20),
                  strides[rng.below(8)]};
  }
  // Stream 0 walks one array every core shares (same start on every
  // core), so a prefetch can find a line another core brought in.
  if (share) {
    streams[0].next = shared_base + (Addr{1} << 32) + (c.seed & 0xFFF) * line;
    streams[0].stride = 64;
  }
  std::vector<MemRef> out;
  Addr last = private_base;
  for (std::uint64_t i = 0; i < length; ++i) {
    MemRef r;
    const std::uint64_t kind = rng.below(10);
    if (kind < 4) {
      Stream& s = streams[rng.below(3)];
      r.addr = s.next;
      r.pc = s.pc;
      s.next = static_cast<Addr>(static_cast<std::int64_t>(s.next) + s.stride);
    } else if (kind < 7 || (kind < 9 && !share)) {
      r.addr = private_base + rng.below(private_pool) * line + rng.below(line);
      r.pc = 0x1000u + 4 * static_cast<std::uint32_t>(rng.below(16));
    } else if (kind < 9) {
      r.addr = shared_base + rng.below(shared_pool) * line + rng.below(line);
      r.pc = 0x2000u + 4 * static_cast<std::uint32_t>(rng.below(16));
    } else {
      r.addr = last;
      r.pc = 0x3000u;
    }
    r.gap = static_cast<std::uint16_t>(rng.below(12));
    r.is_write = rng.below(4) == 0;
    last = r.addr;
    out.push_back(r);
  }
  return out;
}

}  // namespace

HierarchyConfig draw_config(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return draw_config(rng);
}

Case draw_case(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Case k;
  k.seed = seed;
  k.config = draw_config(rng);
  k.refs_per_core = rng.range(100, 2500);
  for (CoreId c = 0; c < k.config.cores; ++c) {
    // One core in ten has a finite trace that ends before the quota.
    const std::uint64_t length = rng.below(10) == 0
                                     ? rng.below(k.refs_per_core)
                                     : k.refs_per_core;
    k.traces.push_back(draw_trace(rng, k.config, c, length));
    k.cpi_centi.push_back(static_cast<std::uint32_t>(rng.range(50, 450)));
  }
  return k;
}

std::vector<std::unique_ptr<TraceSource>> make_sources(
    const std::vector<std::vector<MemRef>>& traces,
    const std::vector<std::uint64_t>* limit) {
  std::vector<std::unique_ptr<TraceSource>> out;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    std::vector<MemRef> refs = traces[c];
    if (limit != nullptr) refs.resize(std::min(refs.size(), (*limit)[c]));
    out.push_back(std::make_unique<VectorTraceSource>(std::move(refs)));
  }
  return out;
}

}  // namespace redhip::model
