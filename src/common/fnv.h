// Streaming FNV-1a (64-bit) — the identity hash: sweep cache keys,
// checkpoint keys, config and sampling-plan digests.  Multi-byte values are
// fed little-endian byte by byte, explicitly, so a digest is a pure
// function of the logical values — the same on every host regardless of
// its native byte order or struct padding.  It hashes a few hundred bytes
// of fields per key; bulk payloads are checksummed with the four-lane
// XXH64 in common/checksum.h instead, about 14x faster per byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace redhip {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) mix(p[i]);
    return *this;
  }
  Fnv1a& u8(std::uint8_t v) {
    mix(v);
    return *this;
  }
  Fnv1a& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<unsigned char>(v & 0xff));
      v >>= 8;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<unsigned char>(v & 0xff));
      v >>= 8;
    }
    return *this;
  }
  Fnv1a& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  // Length-prefixed so that consecutive strings can't alias ("ab","c" vs
  // "a","bc").
  Fnv1a& str(const std::string& s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace redhip
