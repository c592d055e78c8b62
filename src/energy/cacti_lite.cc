#include "energy/cacti_lite.h"

#include <cmath>

#include "common/check.h"
#include "common/types.h"

namespace redhip {
namespace {

// Log-log interpolation of y over size between two anchor points, clamped to
// extrapolate with the nearest segment's slope.
double loglog(double size, double s0, double y0, double s1, double y1) {
  if (y0 <= 0.0 || y1 <= 0.0) return 0.0;
  const double t =
      (std::log2(size) - std::log2(s0)) / (std::log2(s1) - std::log2(s0));
  return std::exp2(std::log2(y0) + t * (std::log2(y1) - std::log2(y0)));
}

struct Anchor {
  std::uint64_t size_bytes;
  LevelEnergyParams params;
};

const std::vector<Anchor>& anchor_table() {
  // Table I of the paper, verbatim.  L1/L2 publish a single access number:
  // modeled as tag cost 0 (see params.h).
  static const std::vector<Anchor> kAnchors = {
      {32_KiB, {"32KB", 0, 2, 0.0, 0.0144, 0.0013}},
      {256_KiB, {"256KB", 0, 6, 0.0, 0.0634, 0.02}},
      {4_MiB, {"4MB", 9, 12, 0.348, 0.839, 0.16}},
      {64_MiB, {"64MB", 13, 22, 1.171, 5.542, 2.56}},
  };
  return kAnchors;
}

double interp_field(std::uint64_t size_bytes,
                    double (*get)(const LevelEnergyParams&)) {
  const auto& a = anchor_table();
  const double size = static_cast<double>(size_bytes);
  // Find the bracketing segment (or the nearest one for extrapolation).
  std::size_t hi = 1;
  while (hi + 1 < a.size() &&
         size_bytes > a[hi].size_bytes) {
    ++hi;
  }
  const auto& lo_a = a[hi - 1];
  const auto& hi_a = a[hi];
  return loglog(size, static_cast<double>(lo_a.size_bytes), get(lo_a.params),
                static_cast<double>(hi_a.size_bytes), get(hi_a.params));
}

}  // namespace

LevelEnergyParams CactiLite::cache_params(std::uint64_t size_bytes,
                                          bool force_tag_split) {
  REDHIP_CHECK_MSG(size_bytes >= 1_KiB, "cacti_lite: cache below 1KB");
  // Exact match on an anchor returns the published row.
  for (const auto& an : anchor_table()) {
    if (an.size_bytes == size_bytes &&
        (!force_tag_split || an.params.tag_energy_nj > 0.0)) {
      return an.params;
    }
  }
  LevelEnergyParams p;
  p.name = std::to_string(size_bytes >> 10) + "KB";
  p.data_delay = static_cast<Cycles>(std::llround(interp_field(
      size_bytes, [](const LevelEnergyParams& q) {
        return static_cast<double>(q.data_delay);
      })));
  if (p.data_delay < 1) p.data_delay = 1;
  p.data_energy_nj = interp_field(
      size_bytes, [](const LevelEnergyParams& q) { return q.data_energy_nj; });
  p.leakage_w = interp_field(
      size_bytes, [](const LevelEnergyParams& q) { return q.leakage_w; });
  // Tag array costs: Table I only splits them out for the large caches
  // (>= 4MB).  Between 1MB and 4MB there is no lower tag anchor, so the
  // model applies the 4MB row's tag:data ratios to the interpolated data
  // values; above 4MB both anchors exist and log-log interpolation applies.
  // Below 1MB tags fold into the single access cost like L1/L2.
  if (size_bytes >= 4_MiB) {
    p.tag_delay = static_cast<Cycles>(std::llround(interp_field(
        size_bytes, [](const LevelEnergyParams& q) {
          return static_cast<double>(q.tag_delay);
        })));
    if (p.tag_delay < 1) p.tag_delay = 1;
    p.tag_energy_nj = interp_field(
        size_bytes,
        [](const LevelEnergyParams& q) { return q.tag_energy_nj; });
  } else if (size_bytes >= 1_MiB || force_tag_split) {
    const auto& four_mb = anchor_table()[2].params;
    p.tag_energy_nj = p.data_energy_nj * four_mb.tag_energy_nj /
                      four_mb.data_energy_nj;
    p.tag_delay = static_cast<Cycles>(std::llround(
        static_cast<double>(p.data_delay) *
        static_cast<double>(four_mb.tag_delay) /
        static_cast<double>(four_mb.data_delay)));
    if (p.tag_delay < 1) p.tag_delay = 1;
    if (p.tag_delay >= p.data_delay && p.data_delay > 1) {
      p.tag_delay = p.data_delay - 1;
    }
  }
  return p;
}

PredictorEnergyParams CactiLite::pt_params(std::uint64_t size_bytes) {
  REDHIP_CHECK_MSG(size_bytes >= 8, "cacti_lite: PT below one 64-bit line");
  PredictorEnergyParams p;  // defaults are the 512KB Table I row
  const double ratio = static_cast<double>(size_bytes) / 512.0 / 1024.0;
  p.access_energy_nj = 0.02 * std::sqrt(ratio);
  p.leakage_w = 0.005 * ratio;
  p.access_delay = size_bytes > 1_MiB ? 2 : 1;
  return p;
}

}  // namespace redhip
