// Host-speed probe: a fixed unit of work in the benchmark's own code,
// independent of the simulator, timed next to every pass.
//
// On a shared host the CPU's speed drifts by tens of percent over seconds
// to minutes (turbo budget and sibling-thread load belong to other
// tenants).  The probe does the same kind of work the simulator's hot path
// does — dependent loads, tag compares and LRU updates in a 4 MiB
// set-associative table fed by a pseudo-random line stream with reuse — so
// its rate tracks the speed the host is giving the simulator at that
// moment.  No program change can move it.
#pragma once

namespace perfbench {

// Runs the probe once and returns its rate in probe operations per second.
double probe_rate();

// The probe rate the timing metrics are scaled to (a fixed constant, the
// probe's median rate on the reference host named in README.md).
inline constexpr double kProbeNominalOpsPerS = 30e6;

}  // namespace perfbench
