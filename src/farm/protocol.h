// Farm protocol — what coordinator and worker say to each other.
//
// Sweep cells carry RunSpec modifier closures, which cannot travel a wire.
// Instead the coordinator ships the *description* the closures were built
// from — the base RunSpec scalars plus the `--axis name=v1,v2` strings —
// once, in the Welcome message; the worker rebuilds the identical SweepSpec
// through the same make_named_axis path and expands the identical cell
// list (expansion is deterministic).  From then on a cell is named by its
// index, and every assignment carries the cell's content-address key so
// either side detects drift (different build, different axis semantics) as
// a key mismatch instead of silently simulating the wrong configuration.
//
// All payloads use the ByteWriter/ByteReader little-endian codec; malformed
// payloads are DATA_LOSS (drop the connection), like every other validated
// byte stream in this repo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sweep/sweep.h"

namespace redhip {

// Frame types (the u32 tag in net/frame.h).
enum FarmMsg : std::uint32_t {
  kMsgHello = 1,        // worker -> coord: worker name
  kMsgWelcome = 2,      // coord -> worker: FarmJob + cell count + keys digest
  kMsgCellRequest = 3,  // worker -> coord: give me work (empty payload)
  kMsgCellAssign = 4,   // coord -> worker: cell index + expected key
  kMsgCellResult = 5,   // worker -> coord: index + key + result or status
  kMsgShutdown = 6,     // coord -> worker: sweep complete, exit (empty)
};

// Everything a worker needs to rebuild the coordinator's SweepSpec.
struct FarmJob {
  // Base RunSpec scalars (the fields bench/sweep sets before axes apply).
  std::string bench;           // to_string(BenchmarkId)
  std::uint8_t scheme = 0;     // static_cast<uint8_t>(Scheme)
  std::uint8_t inclusion = 0;  // static_cast<uint8_t>(InclusionPolicy)
  std::uint8_t engine = 0;     // static_cast<uint8_t>(SimEngine)
  std::uint32_t scale = 8;
  std::uint64_t refs_per_core = 0;
  bool prefetch = false;
  std::uint64_t seed = 0;
  SamplingPlan sampling;
  // Per-cell wall-clock budget; the worker starts the clock when the cell
  // begins executing (never charging queue or network wait).
  double cell_timeout = 0.0;
  // Context make_named_axis needs: the benchmark list "workload=all"
  // expands to (names, in order).
  std::vector<std::string> benches;
  // The `--axis` strings, in declaration order (defaults already applied).
  std::vector<std::string> axis_specs;
};

std::string serialize_job(const FarmJob& job);
Result<FarmJob> deserialize_job(const std::string& payload);

// Rebuild the SweepSpec a FarmJob describes.  Throws (INVALID_ARGUMENT
// text) on an unknown benchmark/axis — a version-drift symptom the caller
// surfaces before running anything.
SweepSpec build_sweep_spec(const FarmJob& job);

// Order-sensitive digest over every cell key: one u64 the Welcome message
// carries so a worker proves its locally expanded cell list matches the
// coordinator's before any work is leased.
std::uint64_t cells_digest(const std::vector<SweepCell>& cells);

// Welcome payload: job + expansion fingerprint.
std::string encode_welcome(const FarmJob& job, std::uint64_t cell_count,
                           std::uint64_t keys_digest);
struct Welcome {
  FarmJob job;
  std::uint64_t cell_count = 0;
  std::uint64_t keys_digest = 0;
};
Result<Welcome> decode_welcome(const std::string& payload);

// CellAssign payload.
std::string encode_assign(std::uint64_t index, std::uint64_t key);
struct CellAssign {
  std::uint64_t index = 0;
  std::uint64_t key = 0;
};
Result<CellAssign> decode_assign(const std::string& payload);

// CellResult payload: a completed SimResult (ok) or the cell's terminal
// Status (e.g. DEADLINE_EXCEEDED after the worker's bounded retries).
std::string encode_result(std::uint64_t index, std::uint64_t key,
                          const Status& status, const SimResult& result);
struct CellResult {
  std::uint64_t index = 0;
  std::uint64_t key = 0;
  Status status;  // OK => result holds the completed cell
  SimResult result;
};
Result<CellResult> decode_result(const std::string& payload);

}  // namespace redhip
