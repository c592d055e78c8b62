#include "sweep/result_cache.h"

#include <chrono>
#include <cstdio>

#include "common/bytestream.h"
#include "common/file_io.h"
#include "sweep/config_digest.h"

namespace redhip {
namespace {

// Entry layout is the shared FileEnvelope (common/file_io.h) — the same
// magic/version/key/length/checksum discipline the checkpoint codec uses.
constexpr FileEnvelope kEnvelope{"RDHPSWPC", kSweepCacheSchemaVersion,
                                 "sweep cache"};

}  // namespace

std::string serialize_result(const SimResult& r) {
  ByteWriter w;
  w.put(r);
  // Sampling report (schema v2): plan, aggregate counts and per-window
  // samples.  The estimates are recomputed on load (a pure function of the
  // windows), so the payload stores only the raw data.
  w.boolean(r.sampling.enabled);
  if (r.sampling.enabled) {
    w.put(r.sampling.plan);
    w.u64(r.sampling.skipped_refs);
    w.u64(r.sampling.warmed_refs);
    w.put(r.sampling.window_samples);
  }
  const std::vector<std::uint8_t>& buf = w.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<SimResult> deserialize_result(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  SimResult out;
  r.get(out);
  if (r.boolean()) {
    SamplingPlan plan;
    r.get(plan);
    const std::uint64_t skipped = r.u64();
    const std::uint64_t warmed = r.u64();
    std::vector<WindowSample> windows;
    r.get(windows);
    if (r.ok()) {
      out.sampling = build_sampling_report(
          plan, windows, skipped, warmed, out.total_refs,
          static_cast<std::uint32_t>(out.core_cycles.size()));
    }
  }
  if (!r.ok()) {
    return Status(StatusCode::kDataLoss,
                  "sweep cache payload: truncated or malformed");
  }
  if (!r.exhausted()) {
    return Status(StatusCode::kDataLoss,
                  "sweep cache payload: trailing bytes after result");
  }
  return out;
}

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::filesystem::path ResultCache::entry_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.rdc",
                static_cast<unsigned long long>(key));
  return dir_ / name;
}

Result<SimResult> ResultCache::load(std::uint64_t key) const {
  Result<std::string> payload = open_envelope(kEnvelope, key, entry_path(key));
  if (!payload.ok()) return payload.status();
  return deserialize_result(std::move(payload).value());
}

Status ResultCache::store(std::uint64_t key, const SimResult& result) const {
  return write_file_atomic(entry_path(key),
                           seal_envelope(kEnvelope, key,
                                         serialize_result(result)));
}

void ResultCache::discard(std::uint64_t key) const {
  std::error_code ec;
  std::filesystem::remove(entry_path(key), ec);
}

bool is_orphan_temp_name(const std::string& name) {
  // Only what write_file_atomic itself produces: ".tmp" as a *suffix*
  // (followed by nothing but the writer's numeric uniquifier), never
  // ".tmp" anywhere in the name.  A user file like "results.tmpl.rdc" or
  // "notes.tmp.backup" in the cache directory is not ours to delete.
  const std::size_t at = name.rfind(".tmp");
  if (at == std::string::npos) return false;
  for (std::size_t i = at + 4; i < name.size(); ++i) {
    const char c = name[i];
    if ((c < '0' || c > '9') && c != '_') return false;
  }
  return true;
}

std::size_t ResultCache::gc_orphan_temps(std::chrono::seconds min_age) const {
  std::size_t removed = 0;
  std::error_code ec;
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!is_orphan_temp_name(name)) continue;
    // Age-gate: a temp file younger than min_age may belong to a live
    // writer racing this sweep; one older than that is a leftover from a
    // killed process (writers hold temps for milliseconds, not minutes).
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;
    if (now - mtime < min_age) continue;
    if (std::filesystem::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace redhip
