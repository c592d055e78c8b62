// ByteWriter / ByteReader — explicit little-endian (de)serialization.
//
// Shared by the sweep result cache (.rdc entries) and the checkpoint codec
// (.ckpt files).  Values are written byte by byte in a fixed order, so a
// payload is a pure function of the logical values — the same on every
// host regardless of native byte order or struct padding.  The reader is
// fail-latching: any out-of-bounds or out-of-range read flips ok() to
// false and every subsequent read returns zero, so deserializers can run
// to completion and check ok() once at the end instead of branching per
// field.
//
// Records.  A plain-data record that goes into a checkpoint or a cache
// entry declares its serialized fields once, next to its definition and in
// on-disk order:
//
//   template <class S> static auto fields(S& s) {
//     return std::tie(s.a, s.b, s.c);
//   }
//
// and put(record) / get(record) walk that list.  put and get cover fixed-
// width integers (written at their own width), double (its bit pattern),
// bool (one byte, 0 or 1), enums (their underlying type; each enum names
// its last enumerator with an ADL-visible `last_enumerator(E)`), fixed
// arrays (element by element), vectors (a u64 length, then the elements)
// and nested records.  get fails closed: a bool byte other than 0/1, an
// enum value past its last enumerator, or a vector length above
// kMaxVectorLen or the bytes left latches !ok().  The field list is the
// format: adding, removing or reordering a field changes the bytes of
// every file holding that record, so it needs a schema-version bump
// (kCkptSchemaVersion, kSweepCacheSchemaVersion) like any layout change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace redhip {

// Little-endian word access, assembled byte by byte so the result does not
// depend on the host's byte order or on the pointer's alignment.  GCC and
// Clang compile each to a single load or store on little-endian hosts.
inline std::uint32_t load_le32(const void* p) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}
inline std::uint64_t load_le64(const void* p) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return static_cast<std::uint64_t>(load_le32(b)) |
         static_cast<std::uint64_t>(load_le32(b + 4)) << 32;
}
inline void store_le64(void* p, std::uint64_t v) {
  auto* b = static_cast<std::uint8_t*>(p);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Untrusted on-disk lengths are bounded before any allocation so a corrupt
// length field cannot demand gigabytes.  16M elements is far above anything
// either codec legitimately stores per vector.
inline constexpr std::uint64_t kMaxVectorLen = 1u << 24;

namespace bytestream_detail {

template <class T>
concept Record = requires(T& t) { T::fields(t); };

template <class T>
struct IsVector : std::false_type {};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type {};

}  // namespace bytestream_detail

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  // Empty the buffer and keep its capacity, so a reused writer stops
  // allocating once it has grown to its largest record.
  void clear() { buf_.clear(); }
  // Append `n` bytes and return where they start, so a codec can fill a
  // large section in place (the tag arrays' entry words).  The pointer is
  // valid until the next append.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
      v = static_cast<std::uint16_t>(v >> 8);
    }
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
      v >>= 8;
    }
  }
  void u64(std::uint64_t v) { store_le64(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    std::uint8_t* out = extend(v.size() * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < v.size(); ++i) store_le64(out + 8 * i, v[i]);
  }

  // Any value the header comment lists, records included.
  template <class T>
  void put(const T& v) {
    namespace d = bytestream_detail;
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      if constexpr (sizeof(T) == 1) u8(u);
      if constexpr (sizeof(T) == 2) u16(u);
      if constexpr (sizeof(T) == 4) u32(u);
      if constexpr (sizeof(T) == 8) u64(u);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (d::IsVector<T>::value) {
      u64(v.size());
      for (const auto& e : v) put(e);
    } else {
      static_assert(d::Record<T>, "put: no field list for this type");
      std::apply([this](const auto&... f) { (put(f), ...); }, T::fields(v));
    }
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(data_[pos_++]) << (8 * i));
    }
    return v;
  }
  std::uint32_t u32() {
    const std::uint8_t* p = take(4);
    return p == nullptr ? 0 : load_le32(p);
  }
  std::uint64_t u64() {
    const std::uint8_t* p = take(8);
    return p == nullptr ? 0 : load_le64(p);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  // A byte other than 0 or 1 is malformed: false, and !ok().
  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1) ok_ = false;
    return b == 1;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > kMaxVectorLen || !need(n)) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<std::uint64_t> u64_vec() {
    const std::uint64_t n = u64();
    if (n > kMaxVectorLen) {
      ok_ = false;
      return {};
    }
    const std::uint8_t* p = take(n * sizeof(std::uint64_t));
    if (p == nullptr) return {};
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = load_le64(p + 8 * i);
    return v;
  }
  // Any value the header comment lists, records included; see there for
  // what fails closed.
  template <class T>
  void get(T& v) {
    namespace d = bytestream_detail;
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      U u{};
      get(u);
      if (u > static_cast<U>(last_enumerator(T{}))) {
        ok_ = false;
        u = U{};
      }
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 1) v = static_cast<T>(u8());
      if constexpr (sizeof(T) == 2) v = static_cast<T>(u16());
      if constexpr (sizeof(T) == 4) v = static_cast<T>(u32());
      if constexpr (sizeof(T) == 8) v = static_cast<T>(u64());
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (d::IsVector<T>::value) {
      // Every element takes at least one byte, so a length past the bytes
      // left is malformed before anything is allocated for it.
      const std::uint64_t n = u64();
      if (n > kMaxVectorLen || n > remaining()) {
        ok_ = false;
        v.clear();
        return;
      }
      v.resize(static_cast<std::size_t>(n));
      for (auto& e : v) get(e);
    } else {
      static_assert(d::Record<T>, "get: no field list for this type");
      std::apply([this](auto&... f) { (get(f), ...); }, T::fields(v));
    }
  }

  bool raw(void* out, std::size_t n) {
    const std::uint8_t* p = take(n);
    if (p == nullptr) return false;
    std::memcpy(out, p, n);
    return true;
  }
  // The next `n` bytes, consumed in place; null (and !ok()) past the end.
  const std::uint8_t* take(std::uint64_t n) {
    if (!need(n)) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool need(std::uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace redhip
