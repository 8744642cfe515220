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

/// One query term's list in a k-way probe: the posting list and term id
/// (to look the bitmap back up after sorting by list size), then the probe
/// state filled in once the driving list is known.
struct ListProbe {
  std::span<const DocIndex> list;
  text::TermId term = 0;
  std::span<const uint64_t> bitmap;
  const DocIndex* cursor = nullptr;
};

}  // namespace

template <typename OnDriver, typename OnHit>
void InvertedIndex::ProbeIntersection(std::span<const text::TermId> query_terms,
                                      OnDriver&& on_driver,
                                      OnHit&& on_hit) const {
  const size_t n = query_terms.size();
  // Stack buffer, with a heap fallback only beyond kInlineLists terms, so
  // IntersectionSize stays allocation-free for every realistic query
  // (regression-tested in tests/index/set_kernels_test.cc).
  std::array<ListProbe, kInlineLists> inline_probes;
  std::vector<ListProbe> heap_probes;
  ListProbe* probes = inline_probes.data();
  if (n > kInlineLists) {
    heap_probes.resize(n);
    probes = heap_probes.data();
  }
  for (size_t i = 0; i < n; ++i) {
    probes[i].list = Postings(query_terms[i]);
    probes[i].term = query_terms[i];
  }
  std::sort(probes, probes + n, [](const ListProbe& x, const ListProbe& y) {
    return x.list.size() < y.list.size();
  });
  const std::span<const DocIndex> driver = probes[0].list;
  if (driver.empty()) return;
  for (size_t i = 1; i < n; ++i) {
    probes[i].bitmap = BitmapOf(probes[i].term);
    probes[i].cursor = probes[i].list.data();
    // Tally the probe mechanism chosen for this list once per call.
    if (!probes[i].bitmap.empty()) {
      counters_.CountBitmap();
    } else {
      counters_.CountGalloping();
    }
  }
  on_driver(driver);

  for (DocIndex x : driver) {
    bool present = true;
    for (size_t i = 1; i < n; ++i) {
      ListProbe& p = probes[i];
      if (!p.bitmap.empty()) {
        if (!BitmapTest(p.bitmap, x)) {
          present = false;
          break;
        }
        continue;
      }
      const DocIndex* const end = p.list.data() + p.list.size();
      p.cursor = internal::GallopLowerBound(p.cursor, end, x);
      // This list is exhausted below every remaining candidate: done.
      if (p.cursor == end) return;
      if (*p.cursor != x) {
        present = false;
        break;
      }
    }
    if (present) on_hit(x);
  }
}

std::vector<DocIndex> InvertedIndex::IntersectPostings(
    const std::vector<text::TermId>& query_terms) const {
  std::vector<DocIndex> out;
  AppendIntersection(query_terms, &out);
  return out;
}

size_t InvertedIndex::AppendIntersection(
    std::span<const text::TermId> query_terms,
    std::vector<DocIndex>* out) const {
  if (query_terms.empty()) return 0;
  counters_.CountMaterialized();
  const size_t before = out->size();
  if (query_terms.size() == 1) {
    // Single keyword: the answer is the posting list, copied in one go.
    const std::span<const DocIndex> list = Postings(query_terms[0]);
    out->insert(out->end(), list.begin(), list.end());
    return list.size();
  }
  ProbeIntersection(
      query_terms,
      [out](std::span<const DocIndex> driver) {
        // The hits are a subset of the driving list. Growing geometrically
        // keeps repeated appends into one flat buffer amortized O(1).
        const size_t need = out->size() + driver.size();
        if (need > out->capacity()) {
          out->reserve(std::max(need, 2 * out->capacity()));
        }
      },
      [out](DocIndex d) { out->push_back(d); });
  return out->size() - before;
}

size_t InvertedIndex::IntersectionSize(
    const std::vector<text::TermId>& query_terms) const {
  const size_t n = query_terms.size();
  if (n == 0) return 0;
  if (n == 1) return Postings(query_terms[0]).size();
  if (n == 2) {
    // Pair shortcuts only a count can take: word-wise AND/popcount when
    // both terms are dense, the adaptive merge/gallop when neither is. A
    // dense larger list with a sparse smaller one is the probe below.
    text::TermId ta = query_terms[0];
    text::TermId tb = query_terms[1];
    std::span<const DocIndex> a = Postings(ta);
    std::span<const DocIndex> b = Postings(tb);
    if (a.size() > b.size()) {
      std::swap(a, b);
      std::swap(ta, tb);
    }
    if (a.empty()) return 0;
    if (!HasBitmap(tb)) return PairCount(a, b, &counters_);
    if (HasBitmap(ta)) {
      return BitmapAndCount(BitmapOf(ta), BitmapOf(tb), &counters_);
    }
  }
  size_t count = 0;
  ProbeIntersection(
      query_terms, [](std::span<const DocIndex>) {},
      [&count](DocIndex) { ++count; });
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
