// Crash-safe checkpoint files.
//
// A checkpoint is a full simulator-state snapshot taken at a safe boundary
// (see sim/ckpt_control.h), wrapped in the same self-validating envelope
// the sweep result cache uses: magic, schema version, an embedded identity
// key, payload length, and an XXH64 payload checksum (common/file_io.h).
// At the figures' scale 8 a file is about 1.7 MB, and a save or a load
// takes a few milliseconds: the payload is built in one reserved buffer
// and written from it, and a load reads the file in one sized read and
// verifies it in place.  Files are published only
// by atomic temp+rename, so a kill -9 at any instant leaves either the
// previous complete checkpoint or the new complete one — never a torn
// hybrid.  Anything that fails validation on load is DATA_LOSS: the caller
// evicts the file and cold-starts rather than ever trusting it.
//
// The payload codec itself lives in sim_state.cc (member functions of
// MulticoreSimulator, so the format can reach private state); this header
// is the file-level API the harness and sweep drive.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/simulator.h"

namespace redhip {

// Bump whenever the payload layout (sim_state.cc) or envelope shape
// changes; older files then fail validation and are evicted as DATA_LOSS.
// Version 4: XXH64 envelope checksum and stored refill-buffer tails.
// Version 5: the L1 memo is no longer stored.
inline constexpr std::uint32_t kCkptSchemaVersion = 5;

// Process exit code for a graceful shutdown (SIGTERM/SIGINT observed, state
// checkpointed, run intentionally incomplete).  EX_TEMPFAIL by convention:
// rerun with --ckpt-restore to continue.
inline constexpr int kGracefulShutdownExitCode = 75;

// Identity of a checkpoint: which runs may restore it.  Deliberately
// excludes refs_per_core — a checkpoint taken at N executed references is a
// valid prefix of any longer run, which is what lets sweep cells share one
// warmup checkpoint.  Includes everything that shapes simulated state evolution:
// benchmark, scale, seed, and the full config digest.
std::uint64_t ckpt_key(const std::string& bench, std::uint32_t scale,
                       std::uint64_t seed, std::uint64_t config_dig);

// Serialize `sim` (which must be at a safe boundary) and publish it to
// `path` atomically.  FAILED_PRECONDITION, with no file written, when the
// machine's checkpoints cannot be complete (!sim.ckpt_supported()).
Status save_checkpoint(const MulticoreSimulator& sim, const std::string& path,
                       std::uint64_t key);

// Validate the checkpoint at `path` and apply it to `sim`, which must be
// freshly constructed (same workload recipe, not yet run); its trace
// sources are repositioned from their saved generator state (a source
// without state capture is fast-forwarded with skip()).  Returns
// FAILED_PRECONDITION when !sim.ckpt_supported(), NOT_FOUND when no file
// exists — both leave `sim` untouched — and DATA_LOSS on any validation
// or structural failure; in the DATA_LOSS case `sim` may be partially
// mutated and must be discarded (construct a fresh one and cold-start).
Status load_checkpoint(const std::string& path, std::uint64_t key,
                       MulticoreSimulator& sim);

// Remove a checkpoint that failed validation (or is no longer wanted).
// Returns true when a file was actually removed.
bool evict_checkpoint(const std::string& path);

// Save-cost accounting: save_checkpoint() self-times on the saving thread's
// CPU clock (CLOCK_THREAD_CPUTIME_ID) and accumulates into a process-wide
// counter, so the crash-safety tax can be measured as (total save CPU /
// process run CPU) *within* a single run — a paired plain-vs-checkpointing
// comparison across two runs cannot resolve a ~1% effect on a shared host,
// where run-to-run variance is an order of magnitude larger.  The thread
// clock keeps concurrent workers (--jobs=N) from being charged to a save
// that merely overlaps them.
void ckpt_profile_reset();
double ckpt_profile_save_cpu_seconds();
std::uint64_t ckpt_profile_save_count();

// Install SIGTERM/SIGINT handlers that set the returned stop flag; wire it
// into CkptControl::stop_flag for a checkpoint-then-exit shutdown at the
// next safe boundary.  Idempotent; the flag outlives every run.
const std::atomic<bool>* install_shutdown_flag();

}  // namespace redhip
