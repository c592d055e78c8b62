// Crash-safe file I/O — atomic writes and the self-validating envelope.
//
// write_file_atomic publishes a file only by renaming a fully-written
// unique temp file into place, so readers (and a process restarted after a
// kill) see either the previous content or the complete new content, never
// a truncated hybrid.  The envelope helpers wrap a payload in the
// magic/version/key/length/checksum discipline the sweep result cache
// introduced (DESIGN.md "Sweep & result cache"); the checkpoint codec
// reuses it verbatim with its own magic.  The checksum is the four-lane
// XXH64 of common/checksum.h.  Anything that fails a check is
// DATA_LOSS: the caller discards and regenerates instead of trusting it.
#pragma once

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/bytestream.h"
#include "common/checksum.h"
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
//
// `parts` are written back to back, so a caller with a large body and a
// small frame around it (the checkpoint envelope) writes the body where it
// lies instead of first copying it into one string.
inline Status write_file_atomic(const std::filesystem::path& path,
                                std::initializer_list<std::string_view> parts) {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t pid =
      static_cast<std::uint64_t>(::getpid());
  std::filesystem::path tmp = path;
  tmp += ".tmp" + std::to_string(pid) + "_" +
         std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    for (const std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    if (!out.flush()) {
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

inline Status write_file_atomic(const std::filesystem::path& path,
                                std::string_view content) {
  return write_file_atomic(path, {content});
}

// File layout: magic(8) version(4) key(8) payload_len(8) payload
// checksum(8), every multi-byte field little-endian, checksum =
// checksum64() of the payload bytes.
struct FileEnvelope {
  const char* magic;      // exactly 8 bytes
  std::uint32_t version;  // schema version; mismatch is DATA_LOSS
  const char* what;       // diagnostic prefix, e.g. "sweep cache"
};

inline constexpr std::size_t kEnvelopeHeaderBytes = 8 + 4 + 8 + 8;
inline constexpr std::size_t kEnvelopeTrailerBytes = 8;

// The bytes that go before and after a payload on disk.
struct EnvelopeFrame {
  std::array<char, kEnvelopeHeaderBytes> header;
  std::array<char, kEnvelopeTrailerBytes> trailer;

  std::string_view head() const { return {header.data(), header.size()}; }
  std::string_view tail() const { return {trailer.data(), trailer.size()}; }
};

inline EnvelopeFrame frame_envelope(const FileEnvelope& env, std::uint64_t key,
                                    std::string_view payload) {
  EnvelopeFrame f;
  std::memcpy(f.header.data(), env.magic, 8);
  for (int i = 0; i < 4; ++i) {
    f.header[8 + i] = static_cast<char>(env.version >> (8 * i));
  }
  store_le64(f.header.data() + 12, key);
  store_le64(f.header.data() + 20, payload.size());
  store_le64(f.trailer.data(), checksum64(payload.data(), payload.size()));
  return f;
}

inline std::string seal_envelope(const FileEnvelope& env, std::uint64_t key,
                                 std::string_view payload) {
  const EnvelopeFrame f = frame_envelope(env, key, payload);
  std::string file;
  file.reserve(f.header.size() + payload.size() + f.trailer.size());
  file.append(f.head()).append(payload).append(f.tail());
  return file;
}

// NOT_FOUND when no file exists; DATA_LOSS (with the failing check named)
// for every other defect.  On success returns the validated payload bytes.
// The header is read and checked first, so a file whose size disagrees
// with its payload length is refused before anything is allocated for it;
// the body (payload and checksum) then arrives in one sized read and is
// verified where it landed.
inline Result<std::string> open_envelope(const FileEnvelope& env,
                                         std::uint64_t key,
                                         const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status(StatusCode::kNotFound,
                  std::string(env.what) + ": no entry " + path.string());
  }
  const auto data_loss = [&env, &path](const std::string& why) {
    return Status(StatusCode::kDataLoss, std::string(env.what) + " entry " +
                                             path.string() + ": " + why);
  };
  const std::streamoff size = in.tellg();
  constexpr std::size_t kFrame = kEnvelopeHeaderBytes + kEnvelopeTrailerBytes;
  char header[kEnvelopeHeaderBytes];
  if (size < static_cast<std::streamoff>(kFrame) || !in.seekg(0) ||
      !in.read(header, sizeof(header))) {
    return data_loss("truncated header");
  }
  if (std::memcmp(header, env.magic, 8) != 0) return data_loss("bad magic");
  const std::uint32_t version = load_le32(header + 8);
  const std::uint64_t stored_key = load_le64(header + 12);
  const std::uint64_t payload_len = load_le64(header + 20);
  if (version != env.version) {
    return data_loss("schema version " + std::to_string(version) +
                     " != " + std::to_string(env.version));
  }
  if (stored_key != key) return data_loss("embedded key mismatch");
  if (payload_len != static_cast<std::uint64_t>(size) - kFrame) {
    return data_loss("length mismatch (truncated or padded)");
  }
  std::string body(payload_len + kEnvelopeTrailerBytes, '\0');
  if (!in.read(body.data(), static_cast<std::streamsize>(body.size()))) {
    return data_loss("short read");
  }
  if (load_le64(body.data() + payload_len) !=
      checksum64(body.data(), payload_len)) {
    return data_loss("checksum mismatch");
  }
  body.resize(payload_len);
  return body;
}

}  // namespace redhip
