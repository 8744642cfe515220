#include "index/inverted_index.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "index/csr.h"
#include "index/forward_index.h"
#include "util/random.h"

namespace smartcrawl::index {
namespace {

using text::Document;
using text::TermId;

/// Materializes a span for comparison (std::span has no operator==).
template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

std::vector<Document> SmallCorpus() {
  // doc 0: {0,1,2}  doc 1: {1,2}  doc 2: {2,3}  doc 3: {0,3}
  return {Document({0, 1, 2}), Document({1, 2}), Document({2, 3}),
          Document({0, 3})};
}

TEST(InvertedIndexTest, PostingsAreSortedAndComplete) {
  auto docs = SmallCorpus();
  InvertedIndex idx(docs, 4);
  EXPECT_EQ(idx.num_docs(), 4u);
  EXPECT_EQ(ToVec(idx.Postings(0)), (std::vector<DocIndex>{0, 3}));
  EXPECT_EQ(ToVec(idx.Postings(1)), (std::vector<DocIndex>{0, 1}));
  EXPECT_EQ(ToVec(idx.Postings(2)), (std::vector<DocIndex>{0, 1, 2}));
  EXPECT_EQ(ToVec(idx.Postings(3)), (std::vector<DocIndex>{2, 3}));
  EXPECT_EQ(idx.DocFrequency(2), 3u);
}

TEST(InvertedIndexTest, UnknownTermHasEmptyPostings) {
  auto docs = SmallCorpus();
  InvertedIndex idx(docs, 4);
  EXPECT_TRUE(idx.Postings(99).empty());
  EXPECT_EQ(idx.DocFrequency(99), 0u);
}

TEST(InvertedIndexTest, IntersectConjunctive) {
  auto docs = SmallCorpus();
  InvertedIndex idx(docs, 4);
  EXPECT_EQ(idx.IntersectPostings({1, 2}), (std::vector<DocIndex>{0, 1}));
  EXPECT_EQ(idx.IntersectPostings({0, 1, 2}), (std::vector<DocIndex>{0}));
  EXPECT_TRUE(idx.IntersectPostings({0, 1, 3}).empty());
  EXPECT_EQ(idx.IntersectionSize({2}), 3u);
}

TEST(InvertedIndexTest, EmptyQueryMatchesNothing) {
  auto docs = SmallCorpus();
  InvertedIndex idx(docs, 4);
  EXPECT_TRUE(idx.IntersectPostings({}).empty());
  EXPECT_EQ(idx.IntersectionSize({}), 0u);
}

TEST(InvertedIndexTest, UnionDisjunctive) {
  auto docs = SmallCorpus();
  InvertedIndex idx(docs, 4);
  EXPECT_EQ(idx.UnionPostings({0, 3}), (std::vector<DocIndex>{0, 2, 3}));
  EXPECT_TRUE(idx.UnionPostings({}).empty());
  EXPECT_EQ(idx.UnionPostings({99, 2}), (std::vector<DocIndex>{0, 1, 2}));
}

// ---- Property tests: index results equal brute-force evaluation ----------

struct RandomCorpusParams {
  size_t num_docs;
  size_t vocab;
  size_t max_doc_len;
  uint64_t seed;
};

constexpr RandomCorpusParams kRandomCorpora[] = {
    {10, 5, 4, 1},
    {100, 20, 8, 2},
    {500, 50, 12, 3},
    {1000, 10, 6, 4},   // dense postings
    {200, 500, 10, 5},  // sparse postings
    {2000, 150, 8, 6},  // document frequencies straddle num_docs / 32
};

class InvertedIndexPropertyTest
    : public ::testing::TestWithParam<RandomCorpusParams> {};

std::vector<Document> RandomCorpus(const RandomCorpusParams& p,
                                   smartcrawl::Rng& rng) {
  std::vector<Document> docs;
  for (size_t d = 0; d < p.num_docs; ++d) {
    size_t len = 1 + rng.UniformIndex(p.max_doc_len);
    std::vector<TermId> terms;
    for (size_t i = 0; i < len; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformIndex(p.vocab)));
    }
    docs.emplace_back(std::move(terms));
  }
  return docs;
}

TEST_P(InvertedIndexPropertyTest, IntersectionMatchesBruteForce) {
  const auto& p = GetParam();
  smartcrawl::Rng rng(p.seed);
  auto docs = RandomCorpus(p, rng);
  InvertedIndex idx(docs, p.vocab);

  size_t heap_path_queries = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // 1-3 terms, then 4 to 20: past kInlineLists the probe state lives on
    // the heap.
    const size_t qlen =
        trial < 50 ? 1 + rng.UniformIndex(3) : 4 + rng.UniformIndex(17);
    std::vector<TermId> q;
    for (size_t i = 0; i < qlen; ++i) {
      q.push_back(static_cast<TermId>(rng.UniformIndex(p.vocab)));
    }
    // Explicit duplicates, and ids past the dictionary (no postings).
    if (trial % 5 == 0) q.push_back(q.front());
    if (trial % 13 == 0) q.push_back(static_cast<TermId>(p.vocab + trial));
    std::sort(q.begin(), q.end());
    heap_path_queries += q.size() > InvertedIndex::kInlineLists;

    std::vector<DocIndex> expect;
    for (size_t d = 0; d < docs.size(); ++d) {
      if (docs[d].ContainsAll(q)) expect.push_back(static_cast<DocIndex>(d));
    }
    EXPECT_EQ(idx.IntersectPostings(q), expect) << "trial " << trial;
    EXPECT_EQ(idx.IntersectionSize(q), expect.size()) << "trial " << trial;
    // Appending keeps what the buffer already held.
    std::vector<DocIndex> appended{7, 7};
    EXPECT_EQ(idx.AppendIntersection(q, &appended), expect.size());
    expect.insert(expect.begin(), {7, 7});
    EXPECT_EQ(appended, expect) << "trial " << trial;
  }
  EXPECT_GT(heap_path_queries, 0u);
}

TEST_P(InvertedIndexPropertyTest, UnionMatchesBruteForce) {
  const auto& p = GetParam();
  smartcrawl::Rng rng(p.seed ^ 0xfeedULL);
  auto docs = RandomCorpus(p, rng);
  InvertedIndex idx(docs, p.vocab);

  for (int trial = 0; trial < 30; ++trial) {
    size_t qlen = 1 + rng.UniformIndex(4);
    std::vector<TermId> q;
    for (size_t i = 0; i < qlen; ++i) {
      q.push_back(static_cast<TermId>(rng.UniformIndex(p.vocab)));
    }
    auto got = idx.UnionPostings(q);
    std::vector<DocIndex> expect;
    for (size_t d = 0; d < docs.size(); ++d) {
      bool any = false;
      for (TermId t : q) any |= docs[d].Contains(t);
      if (any) expect.push_back(static_cast<DocIndex>(d));
    }
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorpora, InvertedIndexPropertyTest,
                         ::testing::ValuesIn(kRandomCorpora));

/// The property tests must see k-way probes that mix bit tests and
/// galloping cursors: some corpus gives part of its terms a bitmap and
/// leaves the rest as lists.
TEST(InvertedIndexCorporaTest, SomeCorpusMixesBitmapAndListTerms) {
  size_t mixed = 0;
  for (const RandomCorpusParams& p : kRandomCorpora) {
    smartcrawl::Rng rng(p.seed);
    InvertedIndex idx(RandomCorpus(p, rng), p.vocab);
    size_t bitmap_terms = 0;
    for (TermId t = 0; t < p.vocab; ++t) bitmap_terms += idx.HasBitmap(t);
    mixed += p.num_docs >= kBitmapMinDocs && bitmap_terms > 0 &&
             bitmap_terms < p.vocab;
  }
  EXPECT_GT(mixed, 0u);
}

TEST(ForwardIndexTest, StoresQueryMembership) {
  CsrBuilder<QueryIdx> b(3);
  b.ReserveEntries(0, 2);
  b.ReserveEntry(2);
  b.StartFill();
  b.Push(0, 7);
  b.Push(0, 9);
  b.Push(2, 7);
  ForwardIndex f(std::move(b).Build());
  EXPECT_EQ(ToVec(f.Queries(0)), (std::vector<QueryIdx>{7, 9}));
  EXPECT_TRUE(f.Queries(1).empty());
  EXPECT_EQ(ToVec(f.Queries(2)), (std::vector<QueryIdx>{7}));
  EXPECT_EQ(f.TotalEntries(), 3u);
  EXPECT_EQ(f.num_records(), 3u);
  EXPECT_EQ(f.RowBounds(2), (std::pair<size_t, size_t>{2u, 3u}));
  EXPECT_EQ(ToVec(f.values()), (std::vector<QueryIdx>{7, 9, 7}));
}

}  // namespace
}  // namespace smartcrawl::index
