// Text-file machine descriptions — define a hierarchy without recompiling.
//
// The format is a small INI dialect (gem5-style ergonomics):
//
//   # 4-level Table I machine with ReDHiP
//   cores = 8
//   freq_ghz = 3.7
//   scheme = redhip            # base | phased | cbf | redhip | oracle |
//                              # partial-tag
//   inclusion = inclusive      # inclusive | hybrid | exclusive
//   memory_latency = 0
//
//   [level]                    # repeated, ordered L1 -> LLC (last = shared)
//   size = 32K                 # K/M/G suffixes
//   ways = 4
//
//   [level]
//   size = 64M
//   ways = 16
//   banks = 8
//   split_tags = true          # force a tag/data split (L3/L4-style)
//   phased = false
//
//   [redhip]
//   table_bits = 4M
//   recal_interval = 1000000
//   recal_mode = rolling       # rolling | batch
//   banks = 4
//
// Unknown keys are an error (config typos must not silently default).
// Energy/latency parameters are derived from cacti_lite for each level.
#pragma once

#include <string>

#include "sim/config.h"

namespace redhip {

// Parse a config from text.  Throws std::logic_error with a line number on
// any syntax or validation problem.
HierarchyConfig parse_config_text(const std::string& text);

// Load and parse a config file.
HierarchyConfig load_config_file(const std::string& path);

// Render a config back to the text format, one line per key
// parse_config_text accepts.  Energy parameters are not part of the format
// (the parser derives them from cacti_lite), so for any parsed config c,
// parse_config_text(config_to_text(c)) has the same config_digest as c.
// Useful for dumping derived machines and failing test cases.
std::string config_to_text(const HierarchyConfig& config);

}  // namespace redhip
