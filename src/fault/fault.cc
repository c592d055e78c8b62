#include "fault/fault.h"

#include <sstream>

#include "common/check.h"

namespace redhip {
namespace {

// Workload generators place data in the low 40 address bits (per-core
// region tags live above); flipping inside that span perturbs the reference
// without teleporting it into another core's address space.
constexpr std::uint32_t kTraceAddrBits = 40;

std::uint64_t site_seed(std::uint64_t seed, FaultSite site) {
  // Independent substreams per site: SplitMix64 over (seed, site id).
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(site) * 0x9e3779b97f4a7c15ull));
  return sm.next();
}

}  // namespace

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kPtBitClear:
      return "pt_clear";
    case FaultSite::kPtBitSet:
      return "pt_set";
    case FaultSite::kRecalDrop:
      return "recal_drop";
    case FaultSite::kTraceAddr:
      return "trace";
  }
  return "unknown";
}

std::uint32_t parse_fault_sites(const std::string& csv) {
  std::uint32_t mask = 0;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    if (token == "pt_clear") {
      mask |= static_cast<std::uint32_t>(FaultSite::kPtBitClear);
    } else if (token == "pt_set") {
      mask |= static_cast<std::uint32_t>(FaultSite::kPtBitSet);
    } else if (token == "recal_drop") {
      mask |= static_cast<std::uint32_t>(FaultSite::kRecalDrop);
    } else if (token == "trace") {
      mask |= static_cast<std::uint32_t>(FaultSite::kTraceAddr);
    } else if (token == "all") {
      mask |= kAllFaultSites;
    } else {
      throw std::logic_error("unknown fault site: " + token +
                             " (expected pt_clear|pt_set|recal_drop|trace|all)");
    }
  }
  return mask;
}

std::string fault_sites_to_string(std::uint32_t mask) {
  std::string out;
  for (FaultSite s : {FaultSite::kPtBitClear, FaultSite::kPtBitSet,
                      FaultSite::kRecalDrop, FaultSite::kTraceAddr}) {
    if ((mask & static_cast<std::uint32_t>(s)) == 0) continue;
    if (!out.empty()) out += ',';
    out += to_string(s);
  }
  return out;
}

void FaultConfig::validate() const {
  if (!enabled) return;
  REDHIP_CHECK_MSG(site_mask != 0,
                   "fault injection enabled with an empty site mask");
  REDHIP_CHECK_MSG((site_mask & ~kAllFaultSites) == 0,
                   "fault site mask contains unknown bits");
  REDHIP_CHECK_MSG(rate_per_mref >= 1 && rate_per_mref <= 1'000'000,
                   "fault rate must be in [1, 1e6] per million references");
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config),
      pt_clear_(site_seed(config.seed, FaultSite::kPtBitClear)),
      pt_set_(site_seed(config.seed, FaultSite::kPtBitSet)),
      recal_drop_(site_seed(config.seed, FaultSite::kRecalDrop)),
      trace_addr_(site_seed(config.seed, FaultSite::kTraceAddr)),
      payload_(SplitMix64(config.seed).next()) {
  config_.validate();
  REDHIP_CHECK_MSG(config_.enabled, "FaultInjector built from a disabled config");
}

Xoshiro256& FaultInjector::stream(FaultSite site) {
  switch (site) {
    case FaultSite::kPtBitClear:
      return pt_clear_;
    case FaultSite::kPtBitSet:
      return pt_set_;
    case FaultSite::kRecalDrop:
      return recal_drop_;
    case FaultSite::kTraceAddr:
      return trace_addr_;
  }
  return payload_;  // unreachable for valid sites
}

bool FaultInjector::fires(FaultSite site) {
  if (!site_enabled(site)) return false;
  return stream(site).chance_ppm(config_.rate_per_mref);
}

std::uint64_t FaultInjector::pick(std::uint64_t bound) {
  return payload_.below(bound);
}

bool FaultInjector::maybe_perturb(MemRef& ref) {
  if (!fires(FaultSite::kTraceAddr)) return false;
  ref.addr ^= std::uint64_t{1} << pick(kTraceAddrBits);
  ++stats_.trace_refs_perturbed;
  return true;
}

}  // namespace redhip
