// Seeded random cases for the whole-hierarchy model test: a machine the
// config parser accepts plus the per-core reference streams to run on it.
//
// Machines span 2-5 levels, 1-16 ways over tiny power-of-two set counts
// (every level at least the 1 KiB the energy model prices; a share of L1s
// have 128-512 sets, past the engine's 64-slot L1 memo), 1-12 cores
// (both sides of the 8-core LLC presence-directory gate), every scheme on
// every inclusion policy validate() allows, prefetch, auto-disable,
// writebacks, fault injection and the invariant auditor.  Each machine is
// normalized through the text format, so config_to_text of a drawn config
// reproduces it exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.h"
#include "trace/mem_ref.h"

namespace redhip::model {

struct Case {
  std::uint64_t seed = 0;
  HierarchyConfig config;
  std::vector<std::vector<MemRef>> traces;  // one stream per core
  std::vector<std::uint32_t> cpi_centi;
  std::uint64_t refs_per_core = 0;
};

// Just the machine of draw_case(seed).
HierarchyConfig draw_config(std::uint64_t seed);
Case draw_case(std::uint64_t seed);

// Fresh sources over `traces`, each cut to `limit[c]` references when
// `limit` is non-null.
std::vector<std::unique_ptr<TraceSource>> make_sources(
    const std::vector<std::vector<MemRef>>& traces,
    const std::vector<std::uint64_t>* limit = nullptr);

}  // namespace redhip::model
