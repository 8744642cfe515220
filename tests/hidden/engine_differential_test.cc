#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "datagen/yelp_gen.h"
#include "hidden/hidden_database.h"
#include "text/document.h"
#include "util/random.h"

/// Differential test of the full hidden-database engine (tokenize → index
/// → candidate generation → rank → truncate) against a brute-force
/// evaluator built independently from the same table. Runs over a grid of
/// interface modes and k values with randomized queries drawn from record
/// contents (plus injected junk keywords).

namespace smartcrawl::hidden {
namespace {

// gtest names each case by a byte dump of its GridParams, so the struct
// has no padding: `name_tag` fills the four bytes after `mode`. Padding
// would dump whatever the stack held and rename the case on every build;
// the tags hold the bytes of the case names as first recorded.
struct GridParams {
  HiddenDatabaseOptions::Mode mode;
  uint32_t name_tag;
  double fraction;  // semi-conjunctive bar
  size_t k;
  uint64_t seed;
};
static_assert(sizeof(GridParams) == 32, "GridParams must have no padding");

class EngineDifferentialTest : public ::testing::TestWithParam<GridParams> {
};

TEST_P(EngineDifferentialTest, SearchMatchesBruteForce) {
  const auto& p = GetParam();
  datagen::YelpOptions gopt;
  gopt.corpus_size = 1500;
  gopt.seed = p.seed;
  table::Table t = datagen::GenerateYelpCorpus(gopt);

  // Independent brute-force model: per-record token sets + rating scores.
  text::TermDictionary dict;
  std::vector<text::Document> docs;
  std::vector<double> score;
  auto rating_idx = *t.schema().FieldIndex("rating");
  for (const auto& rec : t.records()) {
    std::string textv = rec.fields[0] + " " + rec.fields[1] + " " +
                        rec.fields[2] + " " + rec.fields[3];
    docs.push_back(text::Document::FromText(textv, dict));
    score.push_back(std::strtod(rec.fields[rating_idx].c_str(), nullptr));
  }

  HiddenDatabaseOptions hopt;
  hopt.top_k = p.k;
  hopt.mode = p.mode;
  hopt.min_match_fraction = p.fraction;
  table::Table engine_table = t;
  auto ranker = MakeFieldRanker(engine_table, "rating");
  HiddenDatabase db(std::move(engine_table), hopt, std::move(ranker));

  Rng rng(p.seed ^ 0x1234ULL);
  for (int trial = 0; trial < 60; ++trial) {
    // Query: 1-3 tokens from a random record, possibly plus junk.
    const auto& pivot = docs[rng.UniformIndex(docs.size())];
    if (pivot.empty()) continue;
    std::vector<std::string> keywords;
    std::vector<text::TermId> qterms;
    size_t qlen = 1 + rng.UniformIndex(3);
    for (size_t i = 0; i < qlen; ++i) {
      text::TermId term = pivot.terms()[rng.UniformIndex(pivot.size())];
      keywords.push_back(dict.TermOf(term));
      qterms.push_back(term);
    }
    size_t junk = rng.Bernoulli(0.3) ? 1 : 0;
    if (junk) keywords.push_back("zzjunk" + std::to_string(trial));
    std::sort(qterms.begin(), qterms.end());
    qterms.erase(std::unique(qterms.begin(), qterms.end()), qterms.end());

    // Brute-force expected matches.
    std::vector<table::RecordId> expect;
    size_t total_keywords = qterms.size() + junk;
    for (table::RecordId d = 0; d < docs.size(); ++d) {
      size_t hit = 0;
      for (text::TermId q : qterms) {
        if (docs[d].Contains(q)) ++hit;
      }
      bool match = false;
      switch (p.mode) {
        case HiddenDatabaseOptions::Mode::kConjunctive:
          match = junk == 0 && hit == qterms.size();
          break;
        case HiddenDatabaseOptions::Mode::kDisjunctive:
          match = hit > 0;
          break;
        case HiddenDatabaseOptions::Mode::kSemiConjunctive: {
          size_t required = static_cast<size_t>(std::ceil(
              p.fraction * static_cast<double>(total_keywords)));
          if (required == 0) required = 1;
          match = hit >= required;
          break;
        }
      }
      if (match) expect.push_back(d);
    }

    // Expected page: rank by (score desc, id asc), truncate. For the
    // disjunctive/semi modes the engine uses the relevance/static ranker
    // configured at construction — here StaticScoreRanker for all modes.
    std::sort(expect.begin(), expect.end(),
              [&](table::RecordId a, table::RecordId b) {
                if (score[a] != score[b]) return score[a] > score[b];
                return a < b;
              });
    if (expect.size() > p.k) expect.resize(p.k);

    auto page_or = db.Search(keywords);
    ASSERT_TRUE(page_or.ok());
    std::vector<table::RecordId> got;
    for (const auto& rec : *page_or) {
      got.push_back(static_cast<table::RecordId>(rec.entity_id));
    }
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModeGrid, EngineDifferentialTest,
    ::testing::Values(
        GridParams{HiddenDatabaseOptions::Mode::kConjunctive, 0x55AE, 1.0,
                   10, 1},
        GridParams{HiddenDatabaseOptions::Mode::kConjunctive, 0x55AE, 1.0, 1,
                   2},
        GridParams{HiddenDatabaseOptions::Mode::kConjunctive, 0, 1.0, 200, 3},
        GridParams{HiddenDatabaseOptions::Mode::kDisjunctive, 0x7FFE, 1.0, 25,
                   4},
        GridParams{HiddenDatabaseOptions::Mode::kSemiConjunctive, 0, 0.9, 10,
                   5},
        GridParams{HiddenDatabaseOptions::Mode::kSemiConjunctive, 0x55AE, 0.5,
                   40, 6},
        GridParams{HiddenDatabaseOptions::Mode::kSemiConjunctive, 0x7FFE,
                   0.75, 3, 7}));

}  // namespace
}  // namespace smartcrawl::hidden
