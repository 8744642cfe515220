#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

/// \file csr.h
/// Flat compressed-sparse-row (CSR) storage: one offsets array plus one
/// contiguous values array, replacing vector<vector> on every crawl-loop
/// hot path (postings, forward lists, sample-match adjacency).
///
/// Why: a vector<vector<T>> scatters each inner list through the heap, so
/// walking the delta-update fan-out is a pointer chase with one cache miss
/// per row. CSR packs all rows back to back — a row is a `std::span` into
/// one allocation, rows adjacent in id are adjacent in memory, and side
/// arrays can be kept index-aligned with `values()` (see
/// `SmartCrawler::forward_dec_`). Built once after construction, immutable
/// thereafter.
///
/// Storage modes. A Csr either OWNS its arrays (built by CsrBuilder) or
/// BORROWS them as non-owning spans over memory someone else keeps alive —
/// the zero-copy path the snapshot subsystem uses to serve plan artifacts
/// straight out of an mmap'ed file (src/snapshot/). Accessors read through
/// internal spans in both modes, so the hot path is identical and
/// branch-free; only construction differs. Borrowed inputs go through the
/// checked `FromBorrowed` factory, which rejects misaligned pointers and
/// malformed offset arrays up front so reads can stay unchecked.

namespace smartcrawl::index {

/// Immutable CSR container. Construct via CsrBuilder (two-pass
/// count-then-fill, no per-row reallocation), via `FromBorrowed` (checked
/// non-owning views), or leave default (0 rows).
template <typename T>
class Csr {
 public:
  Csr() = default;

  Csr(const Csr& other)
      : offsets_(other.offsets_),
        values_(other.values_),
        borrowed_(other.borrowed_) {
    if (borrowed_) {
      offsets_view_ = other.offsets_view_;
      values_view_ = other.values_view_;
    } else {
      AdoptOwned();
    }
  }

  Csr(Csr&& other) noexcept { *this = std::move(other); }

  Csr& operator=(const Csr& other) {
    if (this != &other) *this = Csr(other);
    return *this;
  }

  /// Moving an owning Csr is safe for outstanding row spans: vector moves
  /// transfer the heap buffer, so the re-adopted views alias the same
  /// memory as before.
  Csr& operator=(Csr&& other) noexcept {
    offsets_ = std::move(other.offsets_);
    values_ = std::move(other.values_);
    borrowed_ = other.borrowed_;
    if (borrowed_) {
      offsets_view_ = other.offsets_view_;
      values_view_ = other.values_view_;
    } else {
      AdoptOwned();
    }
    other.offsets_view_ = {};
    other.values_view_ = {};
    other.borrowed_ = false;
    return *this;
  }

  ~Csr() = default;

  /// Non-owning construction over caller-kept storage (e.g. an mmap'ed
  /// snapshot section). Validates the CSR invariants once so every later
  /// accessor can stay unchecked:
  ///   * both spans naturally aligned for their element type,
  ///   * `offsets` empty (0 rows, `values` must be empty too) or
  ///     `offsets[0] == 0`, non-decreasing, `back() == values.size()`.
  /// The caller must keep the underlying memory alive and unchanged for
  /// the lifetime of the returned Csr (and of any copy of it).
  static Result<Csr<T>> FromBorrowed(std::span<const size_t> offsets,
                                     std::span<const T> values) {
    if (std::bit_cast<uintptr_t>(offsets.data()) % alignof(size_t) != 0) {
      return Status::InvalidArgument("Csr::FromBorrowed: misaligned offsets");
    }
    if (std::bit_cast<uintptr_t>(values.data()) % alignof(T) != 0) {
      return Status::InvalidArgument("Csr::FromBorrowed: misaligned values");
    }
    if (offsets.empty()) {
      if (!values.empty()) {
        return Status::InvalidArgument(
            "Csr::FromBorrowed: values without offsets");
      }
    } else {
      if (offsets.front() != 0) {
        return Status::InvalidArgument(
            "Csr::FromBorrowed: offsets[0] != 0");
      }
      for (size_t r = 1; r < offsets.size(); ++r) {
        if (offsets[r] < offsets[r - 1]) {
          return Status::InvalidArgument(
              "Csr::FromBorrowed: offsets decrease at row " +
              std::to_string(r));
        }
      }
      if (offsets.back() != values.size()) {
        return Status::InvalidArgument(
            "Csr::FromBorrowed: offsets.back() != values.size()");
      }
    }
    Csr<T> csr;
    csr.offsets_view_ = offsets;
    csr.values_view_ = values;
    csr.borrowed_ = true;
    return csr;
  }

  [[nodiscard]] size_t num_rows() const {
    return offsets_view_.empty() ? 0 : offsets_view_.size() - 1;
  }
  /// Total entries across all rows.
  [[nodiscard]] size_t num_values() const { return values_view_.size(); }
  [[nodiscard]] bool empty() const { return num_rows() == 0; }
  /// True when this Csr reads through non-owning views.
  [[nodiscard]] bool borrowed() const { return borrowed_; }

  /// The row as a view into the flat values array.
  std::span<const T> operator[](size_t row) const {
    return {values_view_.data() + offsets_view_[row],
            offsets_view_[row + 1] - offsets_view_[row]};
  }

  [[nodiscard]] size_t row_size(size_t row) const {
    return offsets_view_[row + 1] - offsets_view_[row];
  }

  /// Half-open [begin, end) positions of `row` inside values() — for
  /// walking a row together with side arrays aligned to the flat storage.
  [[nodiscard]] std::pair<size_t, size_t> row_bounds(size_t row) const {
    return {offsets_view_[row], offsets_view_[row + 1]};
  }

  /// The whole flat values array (rows concatenated in row order).
  std::span<const T> values() const { return values_view_; }

  /// The offsets array (size num_rows + 1, or empty) — the other half of
  /// the flat representation, exposed so the snapshot writer can persist a
  /// Csr without copying it.
  std::span<const size_t> offsets() const { return offsets_view_; }

 private:
  template <typename U>
  friend class CsrBuilder;

  void AdoptOwned() {
    offsets_view_ = offsets_;
    values_view_ = values_;
  }

  std::vector<size_t> offsets_;  // size num_rows + 1 (or empty); unused
  std::vector<T> values_;        //   when borrowed_
  std::span<const size_t> offsets_view_;
  std::span<const T> values_view_;
  bool borrowed_ = false;
};

/// Two-pass CSR builder: declare every entry with ReserveEntry/
/// ReserveEntries, call StartFill() once, then Push() each value. Values
/// pushed into the same row keep their push order; rows may be filled in
/// any interleaving. Build() moves the finished container out.
template <typename T>
class CsrBuilder {
 public:
  explicit CsrBuilder(size_t num_rows) : counts_(num_rows, 0) {}

  void ReserveEntry(size_t row) { ++counts_[row]; }
  void ReserveEntries(size_t row, size_t n) { counts_[row] += n; }

  /// Freezes the layout and allocates the flat storage.
  void StartFill() {
    csr_.offsets_.assign(counts_.size() + 1, 0);
    for (size_t r = 0; r < counts_.size(); ++r) {
      csr_.offsets_[r + 1] = csr_.offsets_[r] + counts_[r];
    }
    csr_.values_.resize(csr_.offsets_.back());
    cursor_.assign(csr_.offsets_.begin(), csr_.offsets_.end() - 1);
  }

  void Push(size_t row, T value) { csr_.values_[cursor_[row]++] = value; }

  [[nodiscard]] Csr<T> Build() && {
    csr_.AdoptOwned();
    return std::move(csr_);
  }

 private:
  std::vector<size_t> counts_;
  std::vector<size_t> cursor_;
  Csr<T> csr_;
};

/// Convenience: CSR from materialized rows (used where rows are produced
/// by parallel construction before being frozen flat).
template <typename T>
Csr<T> CsrFromRows(const std::vector<std::vector<T>>& rows) {
  CsrBuilder<T> b(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    b.ReserveEntries(r, rows[r].size());
  }
  b.StartFill();
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const T& v : rows[r]) b.Push(r, v);
  }
  return std::move(b).Build();
}

/// A flat array with the same owned-or-borrowed split as Csr: the plan
/// builder fills it like a vector (`assign`, then writes through
/// `mutable_span`), the snapshot loader installs a non-owning view over
/// mapped bytes. Reads go through the view in both modes; there is no
/// non-const element access, so a borrowed array is read-only by type.
template <typename T>
class FlatArray {
 public:
  FlatArray() = default;

  FlatArray(const FlatArray& other)
      : owned_(other.owned_), borrowed_(other.borrowed_) {
    view_ = borrowed_ ? other.view_ : std::span<const T>(owned_);
  }

  FlatArray(FlatArray&& other) noexcept { *this = std::move(other); }

  FlatArray& operator=(const FlatArray& other) {
    if (this != &other) *this = FlatArray(other);
    return *this;
  }

  FlatArray& operator=(FlatArray&& other) noexcept {
    owned_ = std::move(other.owned_);
    borrowed_ = other.borrowed_;
    view_ = borrowed_ ? other.view_ : std::span<const T>(owned_);
    other.view_ = {};
    other.borrowed_ = false;
    return *this;
  }

  ~FlatArray() = default;

  /// Checked non-owning view; same alignment/lifetime contract as
  /// Csr::FromBorrowed.
  static Result<FlatArray<T>> FromBorrowed(std::span<const T> values) {
    if (std::bit_cast<uintptr_t>(values.data()) % alignof(T) != 0) {
      return Status::InvalidArgument(
          "FlatArray::FromBorrowed: misaligned values");
    }
    FlatArray<T> a;
    a.view_ = values;
    a.borrowed_ = true;
    return a;
  }

  /// Owning fill; later element writes go through mutable_span().
  void assign(size_t n, const T& v) {
    owned_.assign(n, v);
    borrowed_ = false;
    view_ = owned_;
  }

  /// The owned storage, writable (owning mode only — storage is stable,
  /// no reallocation). A borrowed array has no storage of its own.
  std::span<T> mutable_span() {
    assert(!borrowed_ && "a borrowed FlatArray is read-only");
    return owned_;
  }

  const T& operator[](size_t i) const { return view_[i]; }

  [[nodiscard]] size_t size() const { return view_.size(); }
  [[nodiscard]] bool empty() const { return view_.empty(); }
  [[nodiscard]] bool borrowed() const { return borrowed_; }
  std::span<const T> span() const { return view_; }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
  bool borrowed_ = false;
};

}  // namespace smartcrawl::index
