#include "sweep/config_digest.h"

#include "common/fnv.h"

namespace redhip {

std::uint64_t sweep_cache_key(const RunSpec& spec) {
  Fnv1a h;
  h.str("redhip-sweep-cache");
  h.u32(kSweepCacheSchemaVersion);
  h.str(to_string(spec.bench));
  h.u32(spec.scale);
  h.u64(spec.refs_per_core);
  h.u64(spec.seed);
  h.u64(config_digest(resolved_config(spec)));
  // Sampled cells never alias exact ones (or cells sampled under another
  // plan): the plan changes which references are simulated, hence every
  // cached statistic.  0 when sampling is off.
  h.u64(sampling_digest(spec.sampling));
  return h.digest();
}

}  // namespace redhip
