// Differential tests: the prefix-filtered whole-table joins
// (PrefixFilterJaccardJoin, BestMatchPerLeft, and EnrichTable's kJaccard path
// on top of them) against a nested loop written here from the definition of
// Jaccard similarity.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/enrich.h"
#include "datagen/scenario.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "text/dictionary.h"
#include "text/document.h"
#include "util/random.h"

namespace smartcrawl::match {
namespace {

using text::Document;
using text::TermId;

constexpr double kThresholds[] = {1e-9, 0.5, 0.6, 1.0};
constexpr unsigned kThreadCounts[] = {1, 4};

/// |a ∩ b| / |a ∪ b| by a plain merge: no length filter, no kernel choice.
double DefinitionJaccard(const Document& a, const Document& b) {
  size_t inter = 0;
  auto i = a.terms().begin();
  auto j = b.terms().begin();
  while (i != a.terms().end() && j != b.terms().end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

/// Every pair of non-empty documents at or above `t`, in (left, right) order.
std::vector<JoinPair> NestedLoopJoin(const std::vector<Document>& left,
                                     const std::vector<Document>& right,
                                     double t) {
  std::vector<JoinPair> out;
  for (uint32_t i = 0; i < left.size(); ++i) {
    if (left[i].empty()) continue;
    for (uint32_t j = 0; j < right.size(); ++j) {
      if (right[j].empty()) continue;
      const double sim = DefinitionJaccard(left[i], right[j]);
      if (sim >= t) out.push_back(JoinPair{i, j, sim});
    }
  }
  return out;
}

/// Per left document, the first right index with the highest similarity
/// at or above `t`, or -1.
std::vector<int32_t> NestedLoopBest(const std::vector<Document>& left,
                                    const std::vector<Document>& right,
                                    double t) {
  std::vector<int32_t> best(left.size(), -1);
  std::vector<double> best_sim(left.size(), 0.0);
  for (const JoinPair& p : NestedLoopJoin(left, right, t)) {
    if (best[p.left] == -1 || p.similarity > best_sim[p.left]) {
      best[p.left] = static_cast<int32_t>(p.right);
      best_sim[p.left] = p.similarity;
    }
  }
  return best;
}

/// Same pairs, same order, bit-identical similarity doubles.
void ExpectSamePairs(const std::vector<JoinPair>& got,
                     const std::vector<JoinPair>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].left, expect[k].left) << k;
    ASSERT_EQ(got[k].right, expect[k].right) << k;
    ASSERT_EQ(got[k].similarity, expect[k].similarity) << k;
  }
}

/// Both whole-table joins against the nested loop at every threshold and
/// thread count of the sweep.
void ExpectJoinsMatchNestedLoop(const std::vector<Document>& left,
                                const std::vector<Document>& right) {
  for (double t : kThresholds) {
    const auto pairs = NestedLoopJoin(left, right, t);
    const auto best = NestedLoopBest(left, right, t);
    for (unsigned threads : kThreadCounts) {
      SCOPED_TRACE("threshold=" + std::to_string(t) +
                   " threads=" + std::to_string(threads));
      ExpectSamePairs(PrefixFilterJaccardJoin(left, right, t, threads),
                      pairs);
      EXPECT_EQ(BestMatchPerLeft(left, right, t, threads), best);
    }
  }
}

/// `n` documents of 0..max_len tokens over a skewed vocabulary of `vocab`
/// ids starting at `base`; duplicates collapse, so sizes vary further.
std::vector<Document> RandomDocs(Rng& rng, size_t n, size_t vocab,
                                 size_t max_len, TermId base = 0) {
  std::vector<Document> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t len = rng.UniformIndex(max_len + 1);
    std::vector<TermId> terms;
    for (size_t k = 0; k < len; ++k) {
      const uint64_t r = rng.UniformIndex(vocab);
      terms.push_back(base + static_cast<TermId>(r * r / vocab));
    }
    docs.emplace_back(std::move(terms));
  }
  return docs;
}

struct JoinShape {
  const char* tag;
  size_t nl, nr, vocab, max_len;
  uint64_t seed;
};

// By tag: gtest's default prints the raw bytes, `tag`'s address among them,
// which would put a different ASLR address into the listed test name on
// every run of the binary.
void PrintTo(const JoinShape& s, std::ostream* os) { *os << s.tag; }

class JoinDifferentialTest : public ::testing::TestWithParam<JoinShape> {};

TEST_P(JoinDifferentialTest, MatchesNestedLoop) {
  const JoinShape& s = GetParam();
  Rng rng(s.seed);
  const auto left = RandomDocs(rng, s.nl, s.vocab, s.max_len);
  const auto right = RandomDocs(rng, s.nr, s.vocab, s.max_len);
  ExpectJoinsMatchNestedLoop(left, right);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinDifferentialTest,
    ::testing::Values(JoinShape{"Empty", 0, 0, 10, 4, 1},
                      JoinShape{"NoLeft", 0, 7, 10, 4, 2},
                      JoinShape{"NoRight", 7, 0, 10, 4, 3},
                      JoinShape{"OneByOne", 1, 1, 3, 3, 4},
                      JoinShape{"Tiny", 10, 10, 6, 5, 5},
                      JoinShape{"Small", 60, 40, 30, 8, 6},
                      JoinShape{"Medium", 300, 200, 80, 10, 7},
                      JoinShape{"PastMillionPairs", 1100, 1000, 300, 9, 8}),
    [](const ::testing::TestParamInfo<JoinShape>& pinfo) {
      return std::string(pinfo.param.tag);
    });

/// |b| = τ·|a| exactly: the length filter's boundary must admit the pair,
/// whichever side is the larger.
TEST(JoinDifferentialEdgeTest, PairsOnTheLengthFilterEdge) {
  const std::vector<Document> ten = {
      Document({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})};
  const std::vector<Document> five = {Document({1, 2, 3, 4, 5})};
  const std::vector<Document> four = {Document({1, 2, 3, 4})};
  ASSERT_EQ(PrefixFilterJaccardJoin(ten, five, 0.5).size(), 1u);  // 5/10
  ASSERT_EQ(PrefixFilterJaccardJoin(five, ten, 0.5).size(), 1u);
  EXPECT_TRUE(PrefixFilterJaccardJoin(ten, four, 0.5).empty());  // 4/10
  EXPECT_EQ(BestMatchPerLeft(ten, five, 0.5), std::vector<int32_t>{0});

  const std::vector<Document> a = {Document({1, 2, 3, 4, 5})};
  const std::vector<Document> b = {Document({1, 2, 3}), Document({1, 2})};
  ExpectSamePairs(PrefixFilterJaccardJoin(a, b, 0.6),
                  NestedLoopJoin(a, b, 0.6));
  ASSERT_EQ(PrefixFilterJaccardJoin(a, b, 0.6).size(), 1u);  // 3/5 only
  ExpectJoinsMatchNestedLoop(ten, five);
  ExpectJoinsMatchNestedLoop(a, b);
}

/// Equal best similarities resolve to the lower right index, also when the
/// tied documents differ in which rare token puts them in the prefix index.
TEST(JoinDifferentialEdgeTest, EqualBestTiesPickTheLowerRightIndex) {
  const std::vector<Document> left = {Document({1, 2, 3, 4}),
                                      Document({20, 21})};
  const std::vector<Document> right = {
      Document({9}),           Document({1, 2, 3, 8}),  // 3/5
      Document({1, 2, 3, 7}),  // 3/5, tie
      Document({20, 21}),      Document({20, 21})};     // 1.0, tie
  EXPECT_EQ(BestMatchPerLeft(left, right, 0.5),
            (std::vector<int32_t>{1, 3}));
  ExpectJoinsMatchNestedLoop(left, right);

  // Every left document is duplicated on the right: the first copy wins.
  Rng rng(41);
  const auto docs = RandomDocs(rng, 200, 40, 8);
  std::vector<Document> twice = docs;
  twice.insert(twice.end(), docs.begin(), docs.end());
  const auto best = BestMatchPerLeft(docs, twice, 0.6, 4);
  for (size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].empty()) continue;
    ASSERT_GE(best[i], 0) << i;
    EXPECT_LT(static_cast<size_t>(best[i]), docs.size()) << i;
  }
  ExpectJoinsMatchNestedLoop(docs, twice);
}

TEST(JoinDifferentialEdgeTest, EmptyDocumentsOnEitherSideNeverMatch) {
  const std::vector<Document> left = {Document(), Document({1, 2}),
                                      Document()};
  const std::vector<Document> right = {Document({1, 2}), Document(),
                                       Document({1})};
  for (double t : kThresholds) {
    for (const JoinPair& p : PrefixFilterJaccardJoin(left, right, t)) {
      EXPECT_EQ(p.left, 1u);
      EXPECT_NE(p.right, 1u);
    }
    EXPECT_EQ(BestMatchPerLeft(left, right, t)[0], -1);
    EXPECT_EQ(BestMatchPerLeft(left, right, t)[2], -1);
  }
  const std::vector<Document> all_empty(5);
  ExpectJoinsMatchNestedLoop(all_empty, all_empty);
  ExpectJoinsMatchNestedLoop(left, right);
}

/// Term ids just below UINT32_MAX: the join must size its storage by the
/// number of distinct terms and tokens, not by the largest id.
TEST(JoinDifferentialEdgeTest, TermIdsNearUint32MaxStayInBoundedMemory) {
  constexpr TermId kTop = std::numeric_limits<TermId>::max();
  Rng rng(5);
  const auto left = RandomDocs(rng, 150, 60, 8, kTop - 60);
  const auto right = RandomDocs(rng, 120, 60, 8, kTop - 60);
  ExpectJoinsMatchNestedLoop(left, right);

  // A few small ids among huge ones: one sparse id space.
  std::vector<Document> mixed = {Document({0, 1, kTop}),
                                 Document({1, kTop - 1, kTop}),
                                 Document({kTop})};
  ExpectJoinsMatchNestedLoop(mixed, mixed);
}

/// EnrichTable (kJaccard) on a generated DBLP scenario equals an enrichment
/// computed here: the same documents, the nested-loop best match.
TEST(JoinDifferentialEnrichTest, GeneratedDblpMatchesNestedLoopEnrichment) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 6000;
  cfg.corpus.seed = 77;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2500;
  cfg.local_size = 400;
  cfg.error_rate = 0.2;
  cfg.seed = 9;
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status();
  const table::Table& hidden = s->hidden->OracleTable();
  std::vector<table::Record> crawled(hidden.records().begin(),
                                     hidden.records().begin() + 1500);
  const size_t num_fields = crawled.front().fields.size();

  core::EnrichmentSpec spec;
  spec.er = ErConfig{ErMode::kJaccard, 0.6};
  spec.local_match_fields = s->local_text_fields;
  // Import every hidden field, so each imported row names its match.
  for (size_t f = 0; f < num_fields; ++f) {
    spec.import_fields.emplace_back(f, "hidden_" + std::to_string(f));
  }

  // The reference: EnrichTable's documents, joined by the nested loop.
  text::TermDictionary dict;
  const auto local_docs =
      s->local.BuildDocuments(dict, spec.local_match_fields);
  std::vector<Document> crawled_docs;
  for (const table::Record& rec : crawled) {
    std::string textv;
    for (size_t i = 0; i < rec.fields.size(); ++i) {
      if (i > 0) textv += ' ';
      textv += rec.fields[i];
    }
    crawled_docs.push_back(Document::FromText(textv, dict));
  }
  const auto best =
      NestedLoopBest(local_docs, crawled_docs, spec.er.jaccard_threshold);
  const size_t expect_enriched = static_cast<size_t>(std::count_if(
      best.begin(), best.end(), [](int32_t b) { return b >= 0; }));
  ASSERT_GT(expect_enriched, 0u);

  for (unsigned threads : kThreadCounts) {
    spec.num_threads = threads;
    auto out = core::EnrichTable(s->local, crawled, spec);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->records_enriched, expect_enriched);
    for (size_t d = 0; d < s->local.size(); ++d) {
      const std::vector<std::string>& row = out->enriched.record(d).fields;
      ASSERT_EQ(row.size(), s->local.record(d).fields.size() + num_fields);
      const std::vector<std::string> imported(row.end() - num_fields,
                                              row.end());
      const std::vector<std::string> expect =
          best[d] >= 0 ? crawled[static_cast<size_t>(best[d])].fields
                       : std::vector<std::string>(num_fields);
      ASSERT_EQ(imported, expect) << "record " << d << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace smartcrawl::match
