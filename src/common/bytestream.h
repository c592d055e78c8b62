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
// Records.  A plain-data record or a checkpointed component declares its
// serialized fields once, next to its definition and in on-disk order:
//
//   template <class S> static auto fields(S& s) {
//     return std::tie(s.a, s.b, s.c);
//   }
//
// and put(record) / get(record) walk that list.  put and get cover fixed-
// width integers (written at their own width), double (its bit pattern),
// bool (one byte, 0 or 1), enums (their underlying type; each enum names
// its last enumerator with an ADL-visible `last_enumerator(E)`), fixed
// arrays (element by element), vectors and strings (a u64 length, then the
// elements), tuples (element by element, so a field list is itself a
// value) and nested records.  Two views cover storage a component restores
// in place, whose shape its construction fixed:
//
//   std::span<T>   written exactly as a vector is (a u64 count, then the
//                  elements); get fails closed when the count differs
//                  from the span's size, and never resizes;
//   uncounted(c)   the elements alone, for storage whose length both sides
//                  take from the configuration (per-level counters,
//                  stream cursors).
//
// A list that holds a view builds it with field_list(), which keeps the
// lvalue fields by reference and the views by value.  Vectors and views
// of fixed-width integers move in one bulk pass.  get fails closed: a bool
// byte other than 0/1, an enum value past its last enumerator, or a vector
// or string length above kMaxVectorLen or the bytes left latches !ok().  A
// component's ckpt_load reads through get_checked, which then applies the
// component's own range check (`state_ok`) to what get read.  The field
// list is the format: adding, removing or reordering a field changes the
// bytes of every file holding that record, so it needs a schema-version
// bump (kCkptSchemaVersion, kSweepCacheSchemaVersion) like any layout
// change.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace redhip {

// Copy `n` integers of `width` bytes between host order and little-endian
// bytes, either way: one memcpy on a little-endian host, with each value's
// bytes reversed elsewhere, so a payload never depends on the host's byte
// order or on the pointer's alignment.
inline void copy_le(void* to, const void* from, std::size_t n,
                    std::size_t width) {
  if (n != 0) std::memcpy(to, from, n * width);
  if constexpr (std::endian::native != std::endian::little) {
    auto* b = static_cast<std::uint8_t*>(to);
    for (std::size_t i = 0; i < n * width; i += width) {
      std::reverse(b + i, b + i + width);
    }
  }
}
template <class T>
T load_le(const void* p) {
  T v{};
  copy_le(&v, p, 1, sizeof(T));
  return v;
}
inline std::uint32_t load_le32(const void* p) {
  return load_le<std::uint32_t>(p);
}
inline std::uint64_t load_le64(const void* p) {
  return load_le<std::uint64_t>(p);
}
inline void store_le64(void* p, std::uint64_t v) { copy_le(p, &v, 1, 8); }

// Untrusted on-disk lengths are bounded before any allocation so a corrupt
// length field cannot demand gigabytes.  16M elements is far above anything
// either codec legitimately stores per vector.
inline constexpr std::uint64_t kMaxVectorLen = 1u << 24;

// See the header comment.
template <class T>
struct Uncounted {
  std::span<T> elems;
};
template <class C>
auto uncounted(C& c) {
  const std::span s(c);
  return Uncounted<typename decltype(s)::element_type>{s};
}

// A field list: lvalue fields by reference, views by value.
template <class... F>
std::tuple<F...> field_list(F&&... f) {
  return std::tuple<F...>(std::forward<F>(f)...);
}

namespace bytestream_detail {

template <class T>
concept Record = requires(T& t) { T::fields(t); };

// kIs<T, Of>: T is an Of<...>.
template <class T, template <class...> class Of>
constexpr bool kIs = false;
template <template <class...> class Of, class... A>
constexpr bool kIs<Of<A...>, Of> = true;
template <class T>
constexpr bool kIsSpan = false;
template <class T>
constexpr bool kIsSpan<std::span<T>> = true;

// Integers other than bool: the element types that move in one bulk pass.
template <class T>
constexpr bool kBulk = std::is_integral_v<T> && !std::is_same_v<T, bool>;

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

  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void boolean(bool v) { put(v); }
  // Any value the header comment lists, records included.
  template <class T>
  void put(const T& v) {
    namespace d = bytestream_detail;
    if constexpr (std::is_same_v<T, bool>) {
      put(std::uint8_t{v});
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      copy_le(extend(sizeof(T)), &v, 1, sizeof(T));
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (d::kIs<T, std::vector> || d::kIsSpan<T> ||
                         std::is_same_v<T, std::string>) {
      u64(v.size());
      put_elements(std::span(v));
    } else if constexpr (d::kIs<T, Uncounted>) {
      put_elements(v.elems);
    } else if constexpr (d::kIs<T, std::tuple>) {
      std::apply([this](const auto&... f) { (put(f), ...); }, v);
    } else {
      static_assert(d::Record<T>, "put: no field list for this type");
      put(T::fields(v));
    }
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class T>
  void put_elements(std::span<T> s) {
    using E = std::remove_const_t<T>;
    if constexpr (bytestream_detail::kBulk<E>) {
      copy_le(extend(s.size_bytes()), s.data(), s.size(), sizeof(E));
    } else {
      for (const auto& e : s) put(e);
    }
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}

  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  // A byte other than 0 or 1 is malformed: false, and !ok().
  bool boolean() { return read<bool>(); }
  // Any value the header comment lists, records included; see there for
  // what fails closed.
  template <class T>
  void get(T& v) {
    namespace d = bytestream_detail;
    if constexpr (std::is_same_v<T, bool>) {
      const auto b = read<std::uint8_t>();
      if (b > 1) ok_ = false;
      v = b == 1;
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
      const std::uint8_t* p = take(sizeof(T));
      v = p == nullptr ? T{} : load_le<T>(p);
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(u64());
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (d::kIs<T, std::vector> ||
                         std::is_same_v<T, std::string>) {
      // Every element takes at least one byte, so a length past the bytes
      // left is malformed before anything is allocated for it.
      const std::uint64_t n = u64();
      if (n > kMaxVectorLen || n > remaining()) {
        ok_ = false;
        v.clear();
        return;
      }
      v.resize(static_cast<std::size_t>(n));
      get_elements(std::span(v));
    } else if constexpr (d::kIsSpan<T>) {
      if (u64() != v.size()) {
        ok_ = false;
        return;
      }
      get_elements(v);
    } else if constexpr (d::kIs<T, Uncounted>) {
      get_elements(v.elems);
    } else if constexpr (d::kIs<T, std::tuple>) {
      std::apply([this](auto&... f) { (get(f), ...); }, v);
    } else {
      static_assert(d::Record<T>, "get: no field list for this type");
      get(T::fields(v));
    }
  }
  // A value of any type get covers, by value.
  template <class T>
  T read() {
    T v{};
    get(v);
    return v;
  }
  // get(v), then v's own range check (`bool state_ok() const`): true when
  // both pass.
  template <class T>
  bool get_checked(T& v) {
    get(v);
    return ok_ && v.state_ok();
  }
  // A view read in place, which may be a temporary.
  template <class V>
    requires bytestream_detail::kIs<V, std::tuple> ||
             bytestream_detail::kIsSpan<V>
  void get(V&& v) {
    get(v);
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

  template <class T>
  void get_elements(std::span<T> s) {
    if constexpr (bytestream_detail::kBulk<T>) {
      const std::uint8_t* p = take(s.size_bytes());
      if (p != nullptr) copy_le(s.data(), p, s.size(), sizeof(T));
    } else {
      for (auto& e : s) get(e);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace redhip
