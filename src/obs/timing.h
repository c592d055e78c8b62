// Host-side phase timing for the observability layer.
//
// These are wall-clock measurements of the *host* executing the simulation
// (run loop, recalibration rebuilds, result finalization).  They are useful
// for profiling but are a property of the machine, not of the run — so
// they live in SimResult::obs_timing, which stats_identical ignores, and
// they never appear in the event trace or the epoch series (both of which
// must be deterministic).
#pragma once

#include <chrono>
#include <cstdint>

namespace redhip {

struct ObsTiming {
  bool collected = false;  // true when the run had timing hooks enabled
  double run_seconds = 0.0;       // whole run loop
  double recal_seconds = 0.0;     // inside RedhipTable::recalibrate rebuilds
  double finalize_seconds = 0.0;  // finalize_result (aggregate + price)
  std::uint64_t recal_timings = 0;  // rebuilds measured into recal_seconds
};

// Accumulates the scope's wall time into *acc.  A null accumulator disables
// the timer entirely (no clock syscalls), which is how the hooks stay free
// when observability or timing is off.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* acc) : acc_(acc) {
    if (acc_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (acc_ != nullptr) {
      *acc_ += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace redhip
