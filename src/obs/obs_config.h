// ObsConfig — the observability layer's configuration.
//
// Kept dependency-free (this header is included by sim/config.h) so the
// obs library sits below the simulator in the link graph.  Everything here
// defaults to "off": a config with `enabled == false` must cost nothing on
// the hot path beyond one predicted-not-taken pointer test per reference
// (the <2% budget enforced against BENCH_speed.json).
#pragma once

#include <cstdint>
#include <string>

namespace redhip {

struct ObsConfig {
  bool enabled = false;

  // Epoch boundary: close an epoch every `epoch_refs` references aggregated
  // over all cores — or, when `epoch_cycles` > 0, every `epoch_cycles`
  // simulated cycles instead (measured on the clock of the core that
  // executed the boundary-crossing reference, including global stalls).
  // References run in one deterministic order, so either boundary yields
  // the same epoch series on every run of the same (config, seed).
  std::uint64_t epoch_refs = 100'000;
  std::uint64_t epoch_cycles = 0;

  // When non-empty, the structured event trace (JSONL, one object per
  // line — see DESIGN.md "Observability") is written here.  Epoch samples
  // are collected into SimResult::epochs regardless.
  std::string trace_path;

  // Host-side scoped phase timers (trace refill, recalibration, run loop,
  // finalize).  They never enter the event stream or the epoch series —
  // wall time is a property of the host, not of the run — and land in
  // SimResult::obs_timing, which stats_identical ignores.
  bool timing = true;

  void validate() const;
};

}  // namespace redhip
