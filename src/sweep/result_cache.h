// ResultCache — the content-addressed on-disk store behind resumable
// sweeps.
//
// One file per completed simulation, named by the 64-bit sweep_cache_key
// in hex.  Entries are self-validating (magic, schema version, embedded
// key, length, XXH64 payload checksum); anything that fails a check —
// truncation, a flipped byte, an old schema — is reported as DATA_LOSS and
// the caller discards and re-simulates rather than trusting it.  Writes go
// to a unique temp file followed by an atomic rename, so a process killed
// mid-sweep loses at most the cells that were in flight; every entry that
// exists is complete.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "common/status.h"
#include "sim/stats.h"

namespace redhip {

// Payload codec, exposed for tests.  Serializes every field that
// stats_identical compares (and nothing host-side: host_seconds,
// host_mrefs_per_s and obs_timing are wall-clock properties of the machine
// that happened to run the simulation, meaningless to replay from a cache).
std::string serialize_result(const SimResult& result);
Result<SimResult> deserialize_result(const std::string& payload);

// True only for names write_file_atomic itself produces — a strict ".tmp"
// suffix followed by nothing but the writer's numeric uniquifier
// ([0-9_]*).  gc_orphan_temps uses this so a user file that merely
// *contains* ".tmp" ("results.tmpl.rdc") can never be collected.  Exposed
// for tests.
bool is_orphan_temp_name(const std::string& name);

class ResultCache {
 public:
  // Creates `dir` (and parents) if needed.
  explicit ResultCache(std::filesystem::path dir);

  // NOT_FOUND when no entry exists; DATA_LOSS (with the failing check
  // named) when an entry exists but does not validate.
  Result<SimResult> load(std::uint64_t key) const;

  // Atomic: temp file + rename.  Thread-safe for distinct and identical
  // keys (last rename wins; identical keys hold identical payloads).
  Status store(std::uint64_t key, const SimResult& result) const;

  // Remove an entry (used to evict corrupt files before re-simulating).
  void discard(std::uint64_t key) const;

  // Remove `.tmp*` files left behind by killed writers.  Only temps older
  // than `min_age` are touched — younger ones may belong to a concurrent
  // live sweep.  Returns how many files were removed.
  std::size_t gc_orphan_temps(
      std::chrono::seconds min_age = std::chrono::seconds(900)) const;

  std::filesystem::path entry_path(std::uint64_t key) const;
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

}  // namespace redhip
