#include "energy/ledger.h"

#include "common/check.h"

namespace redhip {

namespace {

// Adds `b` into `a` field by field, over the record's field list.
template <class T>
T& add_fields(T& a, const T& b) {
  std::apply(
      [&b](auto&... x) {
        std::apply([&x...](const auto&... y) { ((x += y), ...); },
                   T::fields(b));
      },
      T::fields(a));
  return a;
}

}  // namespace

LevelEvents& LevelEvents::operator+=(const LevelEvents& o) {
  return add_fields(*this, o);
}

PredictorEvents& PredictorEvents::operator+=(const PredictorEvents& o) {
  return add_fields(*this, o);
}

PrefetchEvents& PrefetchEvents::operator+=(const PrefetchEvents& o) {
  return add_fields(*this, o);
}

double EnergyBreakdown::dynamic_total_j() const {
  double sum = predictor_dynamic_j + recalibration_j + prefetcher_j + memory_j;
  for (double v : level_dynamic_j) sum += v;
  return sum;
}

EnergyLedger::EnergyLedger(std::vector<LevelEnergyParams> level_params,
                           PredictorEnergyParams predictor_params,
                           std::uint32_t num_private_instances,
                           bool shared_last_level, bool charge_fills)
    : level_params_(std::move(level_params)),
      predictor_params_(predictor_params),
      num_private_instances_(num_private_instances),
      shared_last_level_(shared_last_level),
      charge_fills_(charge_fills) {
  REDHIP_CHECK(!level_params_.empty());
  REDHIP_CHECK(num_private_instances_ >= 1);
}

EnergyBreakdown EnergyLedger::price(const std::vector<LevelEvents>& levels,
                                    const PredictorEvents& predictor,
                                    const PrefetchEvents& prefetch,
                                    std::uint64_t memory_accesses,
                                    double memory_energy_nj,
                                    double elapsed_seconds,
                                    double predictor_leakage_w) const {
  REDHIP_CHECK(levels.size() == level_params_.size());
  constexpr double kNjToJ = 1e-9;

  EnergyBreakdown out;
  out.level_dynamic_j.resize(levels.size(), 0.0);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& ev = levels[i];
    const auto& p = level_params_[i];
    // A fill writes both arrays; an invalidation touches only the tag array.
    // For small caches (tag cost folded into data cost) the tag terms are 0
    // and fills/invalidations are priced by the single access number.
    const double tag_nj = p.tag_energy_nj;
    const double data_nj = p.data_energy_nj;
    double j = 0.0;
    j += static_cast<double>(ev.tag_probes) * tag_nj;
    j += static_cast<double>(ev.data_probes) * data_nj;
    if (charge_fills_) {
      j += static_cast<double>(ev.fills) * (tag_nj + data_nj);
    }
    j += static_cast<double>(ev.invalidations) *
         (tag_nj > 0.0 ? tag_nj : data_nj);
    j += static_cast<double>(ev.writebacks) * data_nj;
    out.level_dynamic_j[i] = j * kNjToJ;
  }

  const auto& pp = predictor_params_;
  out.predictor_dynamic_j =
      static_cast<double>(predictor.lookups + predictor.updates) *
      pp.access_energy_nj * kNjToJ;
  // Recalibration: one LLC tag-array set read per set touched, one PT line
  // write per word rebuilt.  A recalibration read is a sequential row sweep
  // of the tag array — no comparators, no way muxes — so it is priced at a
  // quarter of an associative tag probe.
  constexpr double kRecalReadFactor = 0.25;
  const double llc_tag_nj = level_params_.back().tag_energy_nj > 0.0
                                ? level_params_.back().tag_energy_nj
                                : level_params_.back().data_energy_nj;
  out.recalibration_j =
      (static_cast<double>(predictor.recal_sets_read) * llc_tag_nj *
           kRecalReadFactor +
       static_cast<double>(predictor.recal_words_written) *
           pp.access_energy_nj) *
      kNjToJ;

  out.prefetcher_j = static_cast<double>(prefetch.table_lookups) *
                     kPrefetchTableOpNj * kNjToJ;
  out.memory_j =
      static_cast<double>(memory_accesses) * memory_energy_nj * kNjToJ;

  // Leakage: private levels exist once per core; the shared last level once.
  double leak_w = 0.0;
  for (std::size_t i = 0; i < level_params_.size(); ++i) {
    const bool shared = shared_last_level_ && i + 1 == level_params_.size();
    leak_w += level_params_[i].leakage_w *
              (shared ? 1.0 : static_cast<double>(num_private_instances_));
  }
  leak_w += predictor_leakage_w;
  out.leakage_j = leak_w * elapsed_seconds;
  return out;
}

}  // namespace redhip
