#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "index/csr.h"
#include "index/set_kernels.h"
#include "text/dictionary.h"
#include "text/document.h"

/// \file inverted_index.h
/// Inverted index term -> sorted posting list of document indices.
///
/// This single structure backs three different roles in the system:
///  * the hidden-database simulator's search engine (conjunctive retrieval),
///  * fast computation of |q(D)| over the local database (paper Sec. 6.3),
///  * fast computation of |q(Hs)| over the hidden-database sample.
///
/// Storage is flat CSR (one offsets array + one contiguous postings array,
/// built once and immutable). Terms whose posting list is dense enough
/// additionally carry a bitmap over the document space, so the hottest
/// intersections run as word-wise AND/popcount instead of list walks. See
/// docs/architecture.md §3 for the layout and the kernel-selection
/// thresholds.

namespace smartcrawl::index {

using DocIndex = uint32_t;

/// A term gets a dense bitmap when its document frequency reaches
/// num_docs / kBitmapDensityInv (a bitmap costs num_docs/8 bytes vs 4
/// bytes per posting, so above density 1/32 the bitmap is smaller AND
/// answers membership in O(1))...
inline constexpr size_t kBitmapDensityInv = 32;
/// ...but only in corpora of at least this many documents — below that,
/// lists fit in cache and the bitmap bookkeeping cannot pay off.
inline constexpr size_t kBitmapMinDocs = 64;

class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Builds the index over `docs`; `num_terms` is the dictionary size (term
  /// ids must all be < num_terms).
  InvertedIndex(const std::vector<text::Document>& docs, size_t num_terms);

  size_t num_docs() const { return num_docs_; }
  size_t num_terms() const { return postings_.num_rows(); }

  /// Posting list (sorted doc indices) for `term`; empty for unseen terms.
  /// A view into the flat CSR storage — valid as long as the index lives.
  std::span<const DocIndex> Postings(text::TermId term) const;

  /// Document frequency of `term`.
  size_t DocFrequency(text::TermId term) const {
    return Postings(term).size();
  }

  /// True if `term` is dense enough to carry a bitmap (exposed for tests
  /// and the kernel benchmarks).
  bool HasBitmap(text::TermId term) const;

  /// All documents containing every term of `query_terms` (sorted term ids;
  /// duplicates allowed), ascending. An empty query matches nothing by
  /// convention — the keyword interface rejects empty queries.
  std::vector<DocIndex> IntersectPostings(
      const std::vector<text::TermId>& query_terms) const;

  /// IntersectPostings appended to `*out` instead of returned: the query
  /// pool writes every candidate's q(D) into one flat buffer this way.
  /// Returns the number of documents appended.
  size_t AppendIntersection(std::span<const text::TermId> query_terms,
                            std::vector<DocIndex>* out) const;

  /// |IntersectPostings(query_terms)| without materializing anything. Pairs
  /// take count-only shortcuts (word-wise AND/popcount when both terms are
  /// dense, merge or gallop when neither is); every other query runs the
  /// same k-way probe as IntersectPostings. Never allocates for queries of
  /// up to kInlineLists terms.
  size_t IntersectionSize(const std::vector<text::TermId>& query_terms) const;

  /// All documents containing *at least one* term (disjunctive retrieval,
  /// used by the relevance-ranked interface mode). K-way merge over the
  /// posting cursors — no global sort+unique pass.
  std::vector<DocIndex> UnionPostings(
      const std::vector<text::TermId>& query_terms) const;

  /// Queries with at most this many terms probe from a stack buffer;
  /// longer ones take one heap allocation for it.
  static constexpr size_t kInlineLists = 16;

  /// Snapshot of the kernel-mix tallies accumulated by this index
  /// (galloping / merge / bitmap probes, materializing calls). Safe to
  /// read concurrently with queries.
  KernelStats kernel_stats() const { return counters_.Snapshot(); }

 private:
  /// Bitmap words of `term`, or an empty span when the term has none.
  std::span<const uint64_t> BitmapOf(text::TermId term) const;

  /// The one conjunctive intersection routine: the shortest list drives and
  /// each of its documents is probed into the other lists — a bit test
  /// where the term has a bitmap, a galloping cursor otherwise. Calls
  /// `on_driver(shortest)` once before probing (a sizing hint) and
  /// `on_hit(doc)` for every document in all lists, in ascending order.
  /// Nothing is called when a list is empty. Requires a non-empty query.
  template <typename OnDriver, typename OnHit>
  void ProbeIntersection(std::span<const text::TermId> query_terms,
                         OnDriver&& on_driver, OnHit&& on_hit) const;

  static constexpr uint32_t kNoBitmap = 0xffffffffu;

  size_t num_docs_ = 0;
  size_t words_per_doc_set_ = 0;  // ceil(num_docs / 64)
  Csr<DocIndex> postings_;
  std::vector<uint32_t> bitmap_slot_;   // per term; kNoBitmap if absent
  std::vector<uint64_t> bitmap_words_;  // slot-major, words_per_doc_set_ each
  mutable KernelCounters counters_;
};

}  // namespace smartcrawl::index
