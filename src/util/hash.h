#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

/// \file hash.h
/// Hashing helpers (combine, FNV-1a, vector hashing) used by indices and
/// dominance pruning, plus the stable seeded content fingerprint used for
/// snapshot section checksums and plan/config fingerprints.

namespace smartcrawl {

/// splitmix64 finalizer: full-avalanche 64-bit mixing.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash combine with full mixing. The boost-style xor-shift combine is NOT
/// enough here: libstdc++'s std::hash<int> is the identity, and callers
/// look documents up by term-set hash alone, so weakly mixed combines
/// collide on realistic inputs (observed on 20k random short vectors).
inline void HashCombine(size_t& seed, size_t v) {
  seed = Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// FNV-1a over bytes.
inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash of an integral vector; used to look documents up by their term
/// set (duplicate records, crawled-to-local matches).
template <typename T>
size_t HashVector(const std::vector<T>& v) {
  size_t seed = v.size();
  for (const T& x : v) HashCombine(seed, std::hash<T>{}(x));
  return seed;
}

namespace hash_internal {

inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// Assembles 8 bytes little-endian regardless of host byte order, so the
/// hash below is platform-stable. Compilers lower this to a single load on
/// little-endian targets.
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t w = 0;
  for (int b = 0; b < 8; ++b) w |= uint64_t{p[b]} << (8 * b);
  return w;
}

}  // namespace hash_internal

/// Stable seeded 64-bit content hash over raw bytes: an FNV-style
/// xor-multiply chain with the seed folded into the offset basis and a
/// splitmix64 finalizer so nearby seeds produce unrelated streams. Whole
/// little-endian words are absorbed per multiply (8x fewer serial
/// multiplies than byte-wise FNV — this sits on the snapshot checksum hot
/// path); the sub-word tail is absorbed byte-wise. The value depends only
/// on the byte sequence and the seed — never on pointer values, platform,
/// or process — so it is safe to persist (snapshot section checksums) and
/// to compare across runs.
inline uint64_t HashBytes64(const void* data, size_t len,
                            uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = hash_internal::kFnvBasis ^ Mix64(seed);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    h = (h ^ hash_internal::LoadLe64(p + i)) * hash_internal::kFnvPrime;
  }
  for (; i < len; ++i) {
    h ^= p[i];
    h *= hash_internal::kFnvPrime;
  }
  return Mix64(h);
}

/// Streaming companion of HashBytes64 for fingerprinting structured
/// content (build options, table rows) without materializing one buffer.
///
/// Append* methods feed a canonical little-endian byte encoding, so the
/// digest is identical on every platform that runs the crawler. Strings
/// are length-prefixed: ("ab","c") and ("a","bc") never collide by
/// concatenation. Digest() can be called at any point; it finalizes a copy
/// of the running state.
class Fingerprint64 {
 public:
  explicit Fingerprint64(uint64_t seed = 0)
      : h_(hash_internal::kFnvBasis ^ Mix64(seed)) {}

  void AppendBytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    // Word boundaries are positions in the concatenated stream, not in any
    // one Append call — the pending buffer carries the partial word across
    // calls so Digest() equals HashBytes64 over the same bytes regardless
    // of chunking.
    if (pending_len_ > 0) {
      while (pending_len_ < 8 && i < len) pending_[pending_len_++] = p[i++];
      if (pending_len_ < 8) return;
      h_ = (h_ ^ hash_internal::LoadLe64(pending_)) * hash_internal::kFnvPrime;
      pending_len_ = 0;
    }
    for (; i + 8 <= len; i += 8) {
      h_ = (h_ ^ hash_internal::LoadLe64(p + i)) * hash_internal::kFnvPrime;
    }
    for (; i < len; ++i) pending_[pending_len_++] = p[i];
  }

  void AppendU64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    AppendBytes(b, sizeof b);
  }

  void AppendU32(uint32_t v) { AppendU64(v); }
  void AppendBool(bool v) { AppendU64(v ? 1 : 0); }

  /// Exact bit pattern — distinguishes -0.0 from 0.0, which is what a
  /// build-config fingerprint wants (bit-identity, not numeric equality).
  void AppendDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    AppendU64(bits);
  }

  void AppendString(std::string_view s) {
    AppendU64(s.size());
    AppendBytes(s.data(), s.size());
  }

  [[nodiscard]] uint64_t Digest() const {
    uint64_t h = h_;
    for (size_t i = 0; i < pending_len_; ++i) {
      h ^= pending_[i];
      h *= hash_internal::kFnvPrime;
    }
    return Mix64(h);
  }

 private:
  uint64_t h_;
  unsigned char pending_[8] = {};
  size_t pending_len_ = 0;
};

}  // namespace smartcrawl
