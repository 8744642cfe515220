#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.h"

/// \file format.h
/// The snapshot file format — the subsystem's on-disk contract.
///
/// A snapshot is ONE file holding every built `CrawlPlan` artifact as raw
/// little-endian-native sections, addressed by a section table, so a
/// reader can mmap the file and serve the flat artifacts as `std::span` /
/// `index::Csr` views with zero per-element work. Layout:
///
///   offset 0    SnapshotHeader          (64 bytes)
///   offset 64   SectionEntry[n]         (32 bytes each)
///   ...         section payloads, each starting at a 64-byte-aligned
///               offset, padded with zero bytes in between
///
/// Format rules (all violations must surface as a clear `Status`, never
/// as UB — the reader validates before any typed access):
///
///   * Magic: the first 8 bytes are "SCSNAP01" (kMagic read as a
///     little-endian u64). Anything else: not a snapshot.
///   * Version: `kFormatVersion`, bumped on any layout or section-content
///     change. Readers reject other versions outright — no migration.
///   * Endianness tag: `kEndianTag` written in native byte order. A
///     reader on an opposite-endian host sees the byte-swapped value and
///     rejects the file; sections are NOT byte-swapped on load.
///   * Alignment: every section payload starts at a multiple of
///     `kSectionAlign` (64). Since mmap bases are page-aligned, an
///     aligned file offset guarantees an aligned pointer for any element
///     type up to 64-byte alignment — the precondition for serving typed
///     spans straight from the mapping.
///   * Checksums: the header carries a checksum of its own first 48
///     bytes (everything before the checksum field); every section entry
///     carries `HashBytes64` of its payload seeded with
///     `kChecksumSeed ^ id`. All are verified at open.
///   * Fingerprint: `build_fingerprint` identifies the (options, dataset)
///     pair the plan was built from; loading against a mismatching
///     expectation is rejected (see `CrawlPlan::LoadSnapshot`).
///
/// Section ids are owned by the single producer/consumer pair
/// (`CrawlPlan::Serialize` / `LoadSnapshot` in core); this layer only
/// requires ids to be unique within a file.

namespace smartcrawl::snapshot {

/// "SCSNAP01" as a little-endian u64.
inline constexpr uint64_t kMagic = 0x3130'5041'4e53'4353ULL;
/// v3: KernelStats dropped the three vector-kernel tallies (v2's trailing
/// u64s), leaving galloping, merge, bitmap and materialized.
/// v4: the options section no longer stores the naive-query switch, the
/// pool-size cap or the zero-benefit stop switch (the pool shape and the
/// stop rule are fixed).
inline constexpr uint32_t kFormatVersion = 4;
/// Written natively; reads back byte-swapped on an opposite-endian host.
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr size_t kSectionAlign = 64;
inline constexpr uint64_t kChecksumSeed = 0x534e'4150'5345'4544ULL;

/// Fixed 64-byte file header. Trivially copyable on purpose: it crosses
/// the file boundary via memcpy, never via pointer casts.
struct SnapshotHeader {
  uint64_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t endian_tag = kEndianTag;
  /// Total file size in bytes; a truncated copy fails this check before
  /// any section offset is trusted.
  uint64_t file_size = 0;
  /// Build-config fingerprint (options + dataset content).
  uint64_t build_fingerprint = 0;
  uint32_t section_count = 0;
  uint32_t header_bytes = 64;
  uint64_t section_table_offset = 64;
  /// HashBytes64 of the 48 header bytes preceding this field, seeded
  /// with kChecksumSeed.
  uint64_t header_checksum = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(SnapshotHeader) == 64);
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

/// One section-table row.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  /// Absolute file offset; multiple of kSectionAlign.
  uint64_t offset = 0;
  /// Payload size in bytes (excludes alignment padding).
  uint64_t size = 0;
  /// HashBytes64(payload, kChecksumSeed ^ id).
  uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// Canonical little-endian encoder for the variable-shape sections
/// (options blob, scalar state). memcpy-based on purpose: byte punning in
/// this subsystem is confined to the reader's one audited typed-span
/// accessor.
class BlobWriter {
 public:
  void PutU32(uint32_t v) { PutU64(v); }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::byte>(v >> (8 * i)));
    }
  }

  void PutBool(bool v) { PutU64(v ? 1 : 0); }

  /// Exact bit pattern, so round-tripped doubles are bit-identical.
  void PutDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(bits);
  }

  void PutString(std::string_view s) {
    PutU64(s.size());
    for (char c : s) buf_.push_back(static_cast<std::byte>(c));
  }

  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Checked decoder for BlobWriter output: every read is bounds-checked
/// and returns FailedPrecondition on a short blob (corruption shows up as
/// a Status, not a read past the mapping).
class BlobReader {
 public:
  explicit BlobReader(std::span<const std::byte> bytes) : buf_(bytes) {}

  Result<uint64_t> U64() {
    if (buf_.size() - pos_ < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(std::to_integer<unsigned char>(
               buf_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<uint32_t> U32() {
    SC_ASSIGN_OR_RETURN(uint64_t v, U64());
    if (v > UINT32_MAX) return Truncated("u32 range");
    return static_cast<uint32_t>(v);
  }

  Result<bool> Bool() {
    SC_ASSIGN_OR_RETURN(uint64_t v, U64());
    return v != 0;
  }

  Result<double> Double() {
    SC_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Result<std::string> String() {
    SC_ASSIGN_OR_RETURN(uint64_t len, U64());
    if (buf_.size() - pos_ < len) return Truncated("string");
    std::string s(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      s[i] = std::to_integer<char>(buf_[pos_ + i]);
    }
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  Status Truncated(const char* what) const {
    return Status::FailedPrecondition(
        std::string("snapshot blob truncated reading ") + what);
  }

  std::span<const std::byte> buf_;
  size_t pos_ = 0;
};

}  // namespace smartcrawl::snapshot
