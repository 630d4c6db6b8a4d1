// Copyright (c) 2026 moqo authors. MIT license.
//
// The one byte codec behind every byte-identity contract: wire frames
// (net/wire.h), snapshot files and disk-tier segments (persist/format.h),
// the PlanSet and frontier payloads, and the canonical cache keys
// (query/canonical.h, service/signature.h, memo/subplan_key.h).
//
// Every integer is little-endian and fixed-width; every double is its
// IEEE-754 bit pattern, so NaNs and signed zeros survive unchanged. No
// varints, no padding, no host-endianness leaks: equal values encode to
// equal bytes on every host, and round trips are bit-exact by
// construction. Dependency-free, so every layer can include it.

#ifndef MOQO_UTIL_BYTE_CODEC_H_
#define MOQO_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace moqo {

// ---- Writers: append to `out`. ----

namespace byte_codec_internal {

template <typename U>
inline void PutLittleEndian(std::string* out, U v) {
  char bytes[sizeof(U)];
  for (size_t i = 0; i < sizeof(U); ++i) {
    bytes[i] = static_cast<char>(static_cast<uint64_t>(v) >> (8 * i));
  }
  out->append(bytes, sizeof(U));
}

}  // namespace byte_codec_internal

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, uint16_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutU32(std::string* out, uint32_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutU64(std::string* out, uint64_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}
inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
inline void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

// ---- Reader. ----

/// Bounds-checked cursor over an encoded byte range (a frame payload, an
/// mmap'ed file region, a string). Every getter fails — returns false and
/// leaves the cursor where it was — instead of reading past the end, so
/// truncated or hostile input surfaces as a clean decode failure, never
/// as a fault.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  bool GetU8(uint8_t* out) { return GetLittleEndian(out); }
  bool GetU16(uint16_t* out) { return GetLittleEndian(out); }
  bool GetU32(uint32_t* out) { return GetLittleEndian(out); }
  bool GetU64(uint64_t* out) { return GetLittleEndian(out); }
  bool GetI8(int8_t* out) { return GetSigned<uint8_t>(out); }
  bool GetI32(int32_t* out) { return GetSigned<uint32_t>(out); }
  bool GetI64(int64_t* out) { return GetSigned<uint64_t>(out); }
  bool GetDouble(double* out) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  /// Views the next `n` bytes in place (no copy); the view lives as long
  /// as the underlying range.
  bool GetView(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  template <typename U>
  bool GetLittleEndian(U* out) {
    if (remaining() < sizeof(U)) return false;
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(U);
    *out = static_cast<U>(v);
    return true;
  }

  template <typename U, typename S>
  bool GetSigned(S* out) {
    U v = 0;
    if (!GetLittleEndian(&v)) return false;
    *out = static_cast<S>(v);
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Hashing. ----

/// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over `len` bytes, starting from `seed`. Chainable: a
/// call's result seeds the next, so discontiguous pieces hash as if they
/// were contiguous. There is deliberately no default seed — cache keys
/// and persist checksums use different ones, and both are frozen by data
/// that already exists.
inline uint64_t Fnv1a(const void* data, size_t len, uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- Canonical keys. ----

/// An equality-comparable canonical cache key with its precomputed hash —
/// the whole-query ProblemSignature (service/signature.h) and the
/// table-set SubplanSignature (memo/subplan_key.h) alike. Equality
/// compares the full key, so hash collisions never alias two problems.
struct CanonicalKey {
  std::string key;  ///< Canonical byte encoding; defines equality.
  /// Fnv1a of `key` from kFnv1aOffsetBasis (producers that extend a key
  /// chain from it); shard + hash-table routing.
  uint64_t hash = 0;

  bool operator==(const CanonicalKey& other) const {
    return hash == other.hash && key == other.key;
  }
};

}  // namespace moqo

namespace std {
template <>
struct hash<moqo::CanonicalKey> {
  size_t operator()(const moqo::CanonicalKey& key) const noexcept {
    return static_cast<size_t>(key.hash);
  }
};
}  // namespace std

#endif  // MOQO_UTIL_BYTE_CODEC_H_
