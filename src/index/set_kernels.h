#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>

/// \file set_kernels.h
/// Adaptive kernels over sorted uint32 sets (posting lists, document term
/// sets): count-only intersection that never materializes intermediates,
/// galloping vs. branch-light merge selected by size ratio, and word-wise
/// AND/popcount over dense bitmaps. These are the inner loops behind
/// conjunctive retrieval, |q(D)| / |q(Hs)| computation and the
/// prefix-filter verification step.
///
/// Every kernel computes the same mathematical result; selection only
/// changes CPU cost, so crawls stay bit-identical regardless of which
/// kernel ran (pinned by tests/core/golden_crawl_test.cc). There is one
/// portable tier: a vectorized twin would have to show an end-to-end win
/// on the committed benchmark before it earns a second implementation
/// (docs/architecture.md, "One scalar kernel tier").

namespace smartcrawl::index {

/// A pairwise probe gallops instead of merging when the larger side is at
/// least this many times the smaller (classic SVS cutoff: binary search
/// wins once log2(|large|) < |large|/|small|).
inline constexpr size_t kGallopRatio = 32;

/// Plain snapshot of kernel-mix tallies (order-independent sums, so
/// parallel construction reports the same values as sequential).
struct KernelStats {
  /// Lists probed by galloping search: one per pairwise count, or one per
  /// non-driving list of a k-way probe.
  uint64_t galloping = 0;
  /// Pairwise counts answered by the linear merge.
  uint64_t merge = 0;
  /// Probes answered through a dense bitmap (a word AND, or the bit tests
  /// into one list).
  uint64_t bitmap = 0;
  /// Calls that materialized an intersection (IntersectPostings,
  /// AppendIntersection); the count-only path must never bump this —
  /// regression-tested.
  uint64_t materialized = 0;

  KernelStats& operator+=(const KernelStats& o) {
    galloping += o.galloping;
    merge += o.merge;
    bitmap += o.bitmap;
    materialized += o.materialized;
    return *this;
  }
};

/// Thread-safe tally accumulator. Increments are relaxed: counters are
/// observability only and totals are order-independent, so concurrent
/// index users (parallel init loops, shared hidden engines) agree with
/// the sequential run exactly.
class KernelCounters {
 public:
  KernelCounters() = default;
  KernelCounters(const KernelCounters& o) { *this = o; }
  KernelCounters& operator=(const KernelCounters& o) {
    if (this != &o) {
      galloping_.store(o.galloping_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      merge_.store(o.merge_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      bitmap_.store(o.bitmap_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      materialized_.store(o.materialized_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    return *this;
  }

  void CountGalloping() { Bump(galloping_); }
  void CountMerge() { Bump(merge_); }
  void CountBitmap() { Bump(bitmap_); }
  void CountMaterialized() { Bump(materialized_); }

  [[nodiscard]] KernelStats Snapshot() const {
    KernelStats s;
    s.galloping = galloping_.load(std::memory_order_relaxed);
    s.merge = merge_.load(std::memory_order_relaxed);
    s.bitmap = bitmap_.load(std::memory_order_relaxed);
    s.materialized = materialized_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static void Bump(std::atomic<uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> galloping_{0};
  std::atomic<uint64_t> merge_{0};
  std::atomic<uint64_t> bitmap_{0};
  std::atomic<uint64_t> materialized_{0};
};

/// |a ∩ b| by branch-light linear merge: the advance of each cursor is a
/// comparison result, not a taken branch, so the loop pipelines well on
/// similar-sized inputs.
inline size_t MergeCount(std::span<const uint32_t> a,
                         std::span<const uint32_t> b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += static_cast<size_t>(x == y);
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
  return count;
}

namespace internal {

/// First position in [it, end) with *pos >= x, found by exponential probe
/// from `it` then binary search — O(log distance) instead of O(log n),
/// which is what makes repeated probes from a moving cursor cheap.
inline const uint32_t* GallopLowerBound(const uint32_t* it,
                                        const uint32_t* end, uint32_t x) {
  size_t step = 1;
  const uint32_t* probe = it;
  while (probe + step < end && probe[step] < x) {
    probe += step;
    step <<= 1;
  }
  const uint32_t* hi = (probe + step < end) ? probe + step + 1 : end;
  return std::lower_bound(probe, hi, x);
}

}  // namespace internal

/// |small ∩ large| by galloping search with a moving cursor; `small` and
/// `large` must be sorted, and the skew should satisfy kGallopRatio for
/// this to beat the merge.
inline size_t GallopCount(std::span<const uint32_t> small,
                          std::span<const uint32_t> large) {
  size_t count = 0;
  const uint32_t* it = large.data();
  const uint32_t* const end = large.data() + large.size();
  for (uint32_t x : small) {
    it = internal::GallopLowerBound(it, end, x);
    if (it == end) break;
    count += static_cast<size_t>(*it == x);
  }
  return count;
}

/// Adaptive pairwise count: gallop on skew, merge otherwise.
inline size_t PairCount(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        KernelCounters* counters) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopRatio < b.size()) {
    if (counters != nullptr) counters->CountGalloping();
    return GallopCount(a, b);
  }
  if (counters != nullptr) counters->CountMerge();
  return MergeCount(a, b);
}

/// popcount(a AND b) over two equally sized word arrays.
inline size_t BitmapAndCount(std::span<const uint64_t> a,
                             std::span<const uint64_t> b) {
  size_t count = 0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t w = 0; w < n; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

/// Counters-aware bitmap AND: tallies one `bitmap` probe.
inline size_t BitmapAndCount(std::span<const uint64_t> a,
                             std::span<const uint64_t> b,
                             KernelCounters* counters) {
  if (counters != nullptr) counters->CountBitmap();
  return BitmapAndCount(a, b);
}

/// Bit test inside a flat bitmap.
inline bool BitmapTest(std::span<const uint64_t> words, uint32_t pos) {
  return ((words[pos >> 6] >> (pos & 63)) & 1u) != 0;
}

/// Number of `list` elements whose bit is set in `words`.
inline size_t BitmapListCount(std::span<const uint64_t> words,
                              std::span<const uint32_t> list) {
  size_t count = 0;
  for (uint32_t x : list) {
    count += static_cast<size_t>(BitmapTest(words, x));
  }
  return count;
}

}  // namespace smartcrawl::index
