#include "index/inverted_index.h"

#include <algorithm>
#include <array>

namespace smartcrawl::index {

InvertedIndex::InvertedIndex(const std::vector<text::Document>& docs,
                             size_t num_terms)
    : num_docs_(docs.size()) {
  // Two passes: size, then fill — straight into the flat CSR storage.
  CsrBuilder<DocIndex> builder(num_terms);
  for (const auto& doc : docs) {
    for (text::TermId t : doc.terms()) {
      if (t < num_terms) builder.ReserveEntry(t);
    }
  }
  builder.StartFill();
  for (size_t d = 0; d < docs.size(); ++d) {
    for (text::TermId t : docs[d].terms()) {
      if (t < num_terms) builder.Push(t, static_cast<DocIndex>(d));
    }
  }
  postings_ = std::move(builder).Build();
  // Documents are visited in increasing index order, so lists are sorted.

  // Dense terms get a bitmap over the document space.
  bitmap_slot_.assign(num_terms, kNoBitmap);
  if (num_docs_ >= kBitmapMinDocs) {
    words_per_doc_set_ = (num_docs_ + 63) / 64;
    uint32_t slots = 0;
    for (size_t t = 0; t < num_terms; ++t) {
      if (postings_.row_size(t) * kBitmapDensityInv >= num_docs_) {
        bitmap_slot_[t] = slots++;
      }
    }
    bitmap_words_.assign(static_cast<size_t>(slots) * words_per_doc_set_, 0);
    for (size_t t = 0; t < num_terms; ++t) {
      if (bitmap_slot_[t] == kNoBitmap) continue;
      uint64_t* words =
          bitmap_words_.data() +
          static_cast<size_t>(bitmap_slot_[t]) * words_per_doc_set_;
      for (DocIndex d : postings_[t]) {
        words[d >> 6] |= uint64_t{1} << (d & 63);
      }
    }
  }
}

std::span<const DocIndex> InvertedIndex::Postings(text::TermId term) const {
  if (term >= postings_.num_rows()) return {};
  return postings_[term];
}

bool InvertedIndex::HasBitmap(text::TermId term) const {
  return term < bitmap_slot_.size() && bitmap_slot_[term] != kNoBitmap;
}

std::span<const uint64_t> InvertedIndex::BitmapOf(text::TermId term) const {
  if (term >= bitmap_slot_.size() || bitmap_slot_[term] == kNoBitmap) {
    return {};
  }
  return {bitmap_words_.data() +
              static_cast<size_t>(bitmap_slot_[term]) * words_per_doc_set_,
          words_per_doc_set_};
}

namespace {

/// A query term's posting list together with the term id (the id is needed
/// to look the bitmap back up after sorting by list size).
struct ListRef {
  std::span<const DocIndex> list;
  text::TermId term = 0;
};

}  // namespace

std::vector<DocIndex> InvertedIndex::IntersectPostings(
    const std::vector<text::TermId>& query_terms) const {
  if (query_terms.empty()) return {};
  counters_.CountMaterialized();
  // Order term lists by length so the running intersection shrinks fastest.
  std::vector<std::span<const DocIndex>> lists;
  lists.reserve(query_terms.size());
  for (text::TermId t : query_terms) lists.push_back(Postings(t));
  std::sort(lists.begin(), lists.end(),
            [](const auto& x, const auto& y) { return x.size() < y.size(); });
  if (lists.front().empty()) return {};

  std::vector<DocIndex> cur(lists[0].begin(), lists[0].end());
  std::vector<DocIndex> tmp;
  for (size_t i = 1; i < lists.size() && !cur.empty(); ++i) {
    PairIntersect(cur, lists[i], &tmp, &counters_);
    std::swap(cur, tmp);
  }
  return cur;
}

size_t InvertedIndex::IntersectionSize(
    const std::vector<text::TermId>& query_terms) const {
  const size_t n = query_terms.size();
  if (n == 0) return 0;
  if (n == 1) return Postings(query_terms[0]).size();

  // Gather the lists into a stack buffer (heap fallback only beyond
  // kInlineLists terms — the count path stays allocation-free for every
  // realistic query, regression-tested in tests/index/set_kernels_test.cc).
  std::array<ListRef, kInlineLists> inline_refs;
  std::vector<ListRef> heap_refs;
  ListRef* refs = inline_refs.data();
  if (n > kInlineLists) {
    heap_refs.resize(n);
    refs = heap_refs.data();
  }
  for (size_t i = 0; i < n; ++i) {
    refs[i] = ListRef{Postings(query_terms[i]), query_terms[i]};
  }
  std::sort(refs, refs + n, [](const ListRef& x, const ListRef& y) {
    return x.list.size() < y.list.size();
  });
  if (refs[0].list.empty()) return 0;

  if (n == 2) {
    const std::span<const uint64_t> wb = BitmapOf(refs[1].term);
    if (!wb.empty()) {
      const std::span<const uint64_t> wa = BitmapOf(refs[0].term);
      // Both dense: word-wise AND/popcount beats any list walk (the
      // counters-aware overload tallies the probe). Only the larger dense:
      // O(1) bit probes driven by the smaller list.
      if (!wa.empty()) return BitmapAndCount(wa, wb, &counters_);
      counters_.CountBitmap();
      return BitmapListCount(wb, refs[0].list);
    }
    return PairCount(refs[0].list, refs[1].list, &counters_);
  }

  // k-way count: drive with the smallest list; probe each candidate into
  // the other lists (bitmap bit test when dense, galloping cursor search
  // otherwise). Nothing is ever materialized.
  std::array<const DocIndex*, kInlineLists> inline_cursors;
  std::vector<const DocIndex*> heap_cursors;
  const DocIndex** cursors = inline_cursors.data();
  std::array<std::span<const uint64_t>, kInlineLists> inline_bitmaps;
  std::vector<std::span<const uint64_t>> heap_bitmaps;
  std::span<const uint64_t>* bitmaps = inline_bitmaps.data();
  if (n > kInlineLists) {
    heap_cursors.resize(n);
    cursors = heap_cursors.data();
    heap_bitmaps.resize(n);
    bitmaps = heap_bitmaps.data();
  }
  for (size_t i = 1; i < n; ++i) {
    cursors[i] = refs[i].list.data();
    bitmaps[i] = BitmapOf(refs[i].term);
    // Tally the probe mechanism chosen for this list once per call.
    if (!bitmaps[i].empty()) {
      counters_.CountBitmap();
    } else {
      counters_.CountGalloping();
    }
  }

  size_t count = 0;
  for (DocIndex x : refs[0].list) {
    bool present = true;
    for (size_t i = 1; i < n; ++i) {
      if (!bitmaps[i].empty()) {
        if (!BitmapTest(bitmaps[i], x)) {
          present = false;
          break;
        }
        continue;
      }
      const DocIndex* const end = refs[i].list.data() + refs[i].list.size();
      cursors[i] = internal::GallopLowerBound(cursors[i], end, x);
      if (cursors[i] == end) {
        // This list is exhausted below every remaining candidate: done.
        return count;
      }
      if (*cursors[i] != x) {
        present = false;
        break;
      }
    }
    count += static_cast<size_t>(present);
  }
  return count;
}

std::vector<DocIndex> InvertedIndex::UnionPostings(
    const std::vector<text::TermId>& query_terms) const {
  // K-way merge over the posting cursors: output stays sorted and unique
  // by construction — no global sort+unique over the concatenation.
  std::vector<std::span<const DocIndex>> lists;
  lists.reserve(query_terms.size());
  size_t total = 0;
  for (text::TermId t : query_terms) {
    std::span<const DocIndex> p = Postings(t);
    if (!p.empty()) {
      lists.push_back(p);
      total += p.size();
    }
  }
  std::vector<DocIndex> out;
  if (lists.empty()) return out;
  if (lists.size() == 1) return {lists[0].begin(), lists[0].end()};
  out.reserve(total);

  std::vector<const DocIndex*> cursors(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) cursors[i] = lists[i].data();
  while (true) {
    DocIndex m = 0;
    bool any = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      const DocIndex* const end = lists[i].data() + lists[i].size();
      if (cursors[i] == end) continue;
      if (!any || *cursors[i] < m) m = *cursors[i];
      any = true;
    }
    if (!any) break;
    out.push_back(m);
    for (size_t i = 0; i < lists.size(); ++i) {
      const DocIndex* const end = lists[i].data() + lists[i].size();
      if (cursors[i] != end && *cursors[i] == m) ++cursors[i];
    }
  }
  return out;
}

}  // namespace smartcrawl::index
