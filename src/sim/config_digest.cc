#include "sim/config_digest.h"

#include <bit>

#include "common/fnv.h"

namespace redhip {
namespace {

void feed(Fnv1a& h, const LevelEnergyParams& e) {
  h.str(e.name);
  h.u64(e.tag_delay).u64(e.data_delay);
  h.f64(e.tag_energy_nj).f64(e.data_energy_nj).f64(e.leakage_w);
}

void feed(Fnv1a& h, const PredictorEnergyParams& e) {
  h.u64(e.access_delay).u64(e.wire_delay);
  h.f64(e.access_energy_nj).f64(e.leakage_w);
}

void feed(Fnv1a& h, const LevelSpec& lvl) {
  h.u64(lvl.geom.size_bytes);
  h.u32(lvl.geom.line_bytes).u32(lvl.geom.ways).u32(lvl.geom.banks);
  h.u8(static_cast<std::uint8_t>(lvl.geom.replacement));
  feed(h, lvl.energy);
  h.u8(lvl.phased ? 1 : 0);
}

}  // namespace

std::uint64_t config_digest(const HierarchyConfig& c) {
  Fnv1a h;
  h.u32(c.cores).f64(c.freq_ghz);
  h.u64(c.levels.size());
  for (const LevelSpec& lvl : c.levels) feed(h, lvl);
  h.u8(static_cast<std::uint8_t>(c.inclusion));
  h.u8(static_cast<std::uint8_t>(c.scheme));

  h.u64(c.redhip.table_bits).u64(c.redhip.recal_interval_l1_misses);
  h.u32(c.redhip.banks);
  h.u8(static_cast<std::uint8_t>(c.redhip.recal_mode));
  feed(h, c.redhip.energy);

  h.u32(c.cbf.index_bits).u32(c.cbf.counter_bits);
  feed(h, c.cbf.energy);

  h.u32(c.partial_tag.partial_bits);
  feed(h, c.partial_tag.energy);

  h.u8(c.prefetch ? 1 : 0);
  h.u32(c.prefetcher.index_bits).u32(c.prefetcher.degree);
  // The prefetcher's line shift is the L1's, hashed at this position so
  // every 64 B-line machine keeps its digest, cache keys and checkpoints.
  h.u32(c.prefetcher.distance)
      .u32(static_cast<std::uint32_t>(
          std::countr_zero(c.levels.at(0).geom.line_bytes)));

  h.u64(c.memory_latency).f64(c.memory_energy_nj);
  h.u8(c.charge_fill_energy ? 1 : 0);
  h.u8(c.model_writebacks ? 1 : 0);

  h.u8(c.auto_disable.enabled ? 1 : 0);
  h.u64(c.auto_disable.epoch_refs);
  h.u32(c.auto_disable.min_l1_miss_ppm).u32(c.auto_disable.min_bypass_ppm);
  h.u32(c.auto_disable.max_backoff_epochs);

  h.u8(c.fault.enabled ? 1 : 0);
  h.u32(c.fault.rate_per_mref).u32(c.fault.site_mask);
  h.u64(c.fault.seed);
  h.u8(c.fault.transient ? 1 : 0);

  h.u8(c.audit.enabled ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(c.audit.policy));

  // Obs fields that shape SimResult::epochs.  trace_path and the host
  // timing switch are excluded: neither can change a simulated statistic.
  h.u8(c.obs.enabled ? 1 : 0);
  h.u64(c.obs.epoch_refs).u64(c.obs.epoch_cycles);

  h.u64(c.seed);
  return h.digest();
}

}  // namespace redhip
