// Crash-safe file I/O — atomic writes and the self-validating envelope.
//
// write_file_atomic publishes a file only by renaming a fully-written
// unique temp file into place, so readers (and a process restarted after a
// kill) see either the previous content or the complete new content, never
// a truncated hybrid.  The envelope helpers wrap a payload in the
// magic/version/key/length/checksum discipline the sweep result cache
// introduced (DESIGN.md "Sweep & result cache"); the checkpoint codec
// reuses it verbatim with its own magic.  Anything that fails a check is
// DATA_LOSS: the caller discards and regenerates instead of trusting it.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fnv.h"
#include "common/status.h"

namespace redhip {

// Write `content` to a unique sibling temp file, then rename into place.
// Unique temp names make concurrent writers of the same path safe (last
// rename wins with a complete file either way).  The temp name embeds the
// pid *and* a per-process counter: the counter alone disambiguates threads
// but collides across processes (two `sweep` runs sharing one --cache-dir
// both start at 0), and two writers sharing a temp file can rename a torn
// hybrid into place.  Keep the format in sync with is_orphan_temp_name()
// (sweep/result_cache.h): ".tmp" + [0-9_]*.
inline Status write_file_atomic(const std::filesystem::path& path,
                                const std::string& content) {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t pid =
      static_cast<std::uint64_t>(::getpid());
  std::filesystem::path tmp = path;
  tmp += ".tmp" + std::to_string(pid) + "_" +
         std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(content.data(),
                           static_cast<std::streamsize>(content.size()))) {
      return Status(StatusCode::kInternal,
                    "atomic write: cannot write " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status(StatusCode::kInternal,
                  "atomic write: cannot rename into " + path.string());
  }
  return Status::Ok();
}

// File layout: magic(8) version(4) key(8) payload_len(8) payload
// checksum(8), every multi-byte field little-endian, checksum = FNV-1a of
// the payload bytes.
struct FileEnvelope {
  const char* magic;      // exactly 8 bytes
  std::uint32_t version;  // schema version; mismatch is DATA_LOSS
  const char* what;       // diagnostic prefix, e.g. "sweep cache"
};

inline std::string seal_envelope(const FileEnvelope& env, std::uint64_t key,
                                 const std::string& payload) {
  std::string file;
  file.reserve(8 + 4 + 8 + 8 + payload.size() + 8);
  file.append(env.magic, 8);
  const auto le32 = [&file](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      file += static_cast<char>(v & 0xff);
      v >>= 8;
    }
  };
  const auto le64 = [&file](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      file += static_cast<char>(v & 0xff);
      v >>= 8;
    }
  };
  le32(env.version);
  le64(key);
  le64(payload.size());
  file += payload;
  le64(fnv1a(payload.data(), payload.size()));
  return file;
}

// NOT_FOUND when no file exists; DATA_LOSS (with the failing check named)
// for every other defect.  On success returns the validated payload bytes.
inline Result<std::string> open_envelope(const FileEnvelope& env,
                                         std::uint64_t key,
                                         const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kNotFound,
                  std::string(env.what) + ": no entry " + path.string());
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto data_loss = [&env, &path](const std::string& why) {
    return Status(StatusCode::kDataLoss, std::string(env.what) + " entry " +
                                             path.string() + ": " + why);
  };
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  if (file.size() < kHeader + 8) return data_loss("truncated header");
  if (std::memcmp(file.data(), env.magic, 8) != 0) {
    return data_loss("bad magic");
  }
  const auto rd32 = [&file](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(file[at + i]))
           << (8 * i);
    }
    return v;
  };
  const auto rd64 = [&file](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(file[at + i]))
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t version = rd32(8);
  const std::uint64_t stored_key = rd64(12);
  const std::uint64_t payload_len = rd64(20);
  if (version != env.version) {
    return data_loss("schema version " + std::to_string(version) +
                     " != " + std::to_string(env.version));
  }
  if (stored_key != key) return data_loss("embedded key mismatch");
  if (file.size() != kHeader + payload_len + 8) {
    return data_loss("length mismatch (truncated or padded)");
  }
  std::string payload = file.substr(kHeader, payload_len);
  const std::uint64_t stored_sum = rd64(kHeader + payload_len);
  if (stored_sum != fnv1a(payload.data(), payload.size())) {
    return data_loss("checksum mismatch");
  }
  return payload;
}

}  // namespace redhip
