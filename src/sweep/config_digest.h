// Content address of one simulation run.
//
// The sweep result cache must never serve a stale result, so the key is a
// digest of *everything the simulated statistics depend on*: the fully
// resolved HierarchyConfig (after scaling and every tweak hook — see
// sim/config_digest.h), the workload identity (benchmark, scale, seed, refs
// per core), and a schema version bumped whenever the digest coverage or
// the cached payload layout changes.
#pragma once

#include <cstdint>

#include "harness/run.h"
#include "sim/config_digest.h"

namespace redhip {

// Bump on any change to config_digest coverage, to sweep_cache_key
// composition, or to the cache entry payload layout (result_cache.cc) —
// old entries then miss instead of deserializing garbage.
// Version 4: XXH64 envelope checksum.
inline constexpr std::uint32_t kSweepCacheSchemaVersion = 4;

// Cache key for one RunSpec: schema version + workload identity +
// config_digest(resolved_config(spec)).
std::uint64_t sweep_cache_key(const RunSpec& spec);

}  // namespace redhip
