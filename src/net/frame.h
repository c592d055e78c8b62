// Wire frames — the farm's unit of network exchange, in the same
// self-validating envelope style as the `.rdc` result cache and RDHPCKPT
// checkpoint files: magic, protocol version, a type tag, an explicit
// payload length, and an FNV-1a checksum.  The checksum covers version,
// type, length AND payload, so a single flipped byte anywhere past the
// magic fails validation — a corrupt or truncated frame is always a clean
// DATA_LOSS (drop the connection, re-lease the work), never a wrong
// result.
//
// Layout (all multi-byte fields little-endian):
//   magic(8)="RDHPFARM" version(4) type(4) payload_len(8) payload
//   checksum(8)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace redhip {

// Bump on any change to the frame layout or to a message payload schema
// (src/farm/protocol.h): a coordinator and worker from different builds
// then refuse each other instead of misinterpreting bytes.
inline constexpr std::uint32_t kFarmProtocolVersion = 2;

// Frames are control messages plus one serialized SimResult; 64 MiB is far
// above any legitimate payload and bounds what a corrupt length field can
// make the receiver allocate.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

// Complete on-wire bytes for one frame.
std::string seal_frame(std::uint32_t type, const std::string& payload);

enum class FrameParse {
  kFrame,     // a complete valid frame was extracted
  kNeedMore,  // the buffer holds a valid prefix; read more bytes
  kBad,       // the buffer can never become a valid frame (DATA_LOSS)
};

// Try to extract one frame from the front of `data`.  On kFrame, `out` is
// filled and `consumed` is the frame's size in bytes; on kNeedMore nothing
// is consumed; on kBad `error` (when non-null) names the failing check.
FrameParse try_parse_frame(const std::uint8_t* data, std::size_t size,
                           Frame& out, std::size_t& consumed,
                           std::string* error = nullptr);

// Incremental frame extraction over a byte stream (one per connection).
// feed() appends received bytes; next() extracts the earliest complete
// frame, returning kNeedMore when the buffer holds only a partial frame
// and kBad (latched — the stream is poisoned) on any validation failure.
class FrameReader {
 public:
  void feed(const void* data, std::size_t size);
  FrameParse next(Frame& out);
  const std::string& error() const { return error_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool bad_ = false;
  std::string error_;
};

}  // namespace redhip
