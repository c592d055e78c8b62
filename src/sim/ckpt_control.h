// CkptControl — the simulator-side contract of the checkpoint subsystem.
//
// The simulator itself never does file I/O and never depends on src/ckpt;
// it only *polls*: at each safe boundary (a point where the engine is
// between references) it consults this struct and, when an action is due,
// either invokes the injected save callback or throws one of the
// control-flow exceptions below.  Everything policy-shaped — intervals,
// signal handling, deadlines, file formats — lives above the simulator, in
// src/ckpt and the harness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace redhip {

class MulticoreSimulator;

// Thrown from a poll site when the wall-clock deadline has passed.  The
// harness converts it to Status(kDeadlineExceeded) for the affected cell.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

// Thrown from a poll site after a stop-flag-requested checkpoint has been
// written: the run is abandoned at a safe boundary with its state on disk.
// The harness exits with a distinct code (see kGracefulShutdownExitCode).
class GracefulShutdownRequest : public std::runtime_error {
 public:
  explicit GracefulShutdownRequest(const std::string& what)
      : std::runtime_error(what) {}
};

struct CkptControl {
  // Periodic checkpoint every this many aggregate executed references
  // (0 = never).  Interval checks happen only at safe boundaries, so the
  // actual spacing can overshoot by up to one refill batch per core.
  std::uint64_t interval_refs = 0;

  // One-shot checkpoint when the aggregate reference count first reaches
  // this value (0 = never) — the sweep warmup-sharing hook.
  std::uint64_t save_at_refs = 0;

  // Graceful-shutdown flag, typically set from a SIGTERM/SIGINT handler
  // (src/ckpt/signal.h).  When observed at a safe boundary: save, then
  // throw GracefulShutdownRequest.  Not owned; may be null.
  const std::atomic<bool>* stop_flag = nullptr;

  // Per-run wall-clock budget; checked at the same boundaries.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  // Writes a checkpoint of `sim` (installed by src/ckpt; the simulator
  // never learns the file format).
  std::function<void(MulticoreSimulator&)> save;

  // Sampled runs only: invoked right after measurement window `w` opens
  // (trace position and warm state are exactly the window-open boundary) at
  // exponentially spaced indices (w + 1 a power of two).  The harness uses
  // it to persist shareable warm snapshots: the prefix up to a window open
  // depends on (bench, scale, seed, config, plan) but NOT on the run's
  // total reference count, so any longer run of the same cell restores the
  // deepest snapshot that still fits inside its own window count.  Not
  // owned; may be empty.
  std::function<void(MulticoreSimulator&, std::uint64_t)> save_window;
};

}  // namespace redhip
