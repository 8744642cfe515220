#include "core/query_pool.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace smartcrawl::core {
namespace {

struct PoolFixture {
  text::TermDictionary dict;
  std::vector<text::Document> docs;
  QueryPool pool;
};

/// Builds the paper's running-example local database (Example 2):
/// d1 "Thai Noodle House", d2 "Noodle House", d3 "Thai House",
/// d4 "Japanese Noodle House".
PoolFixture RunningExamplePool(QueryPoolOptions opt = {}) {
  PoolFixture f;
  const char* names[] = {"Thai Noodle House", "Noodle House", "Thai House",
                         "Japanese Noodle House"};
  for (const char* n : names) {
    f.docs.push_back(text::Document::FromText(n, f.dict));
  }
  f.pool = GenerateQueryPool(f.docs, f.dict, opt);  // default t = 2
  return f;
}

std::set<std::string> QueryStrings(const QueryPool& pool) {
  std::set<std::string> out;
  for (const auto& q : pool.queries) {
    std::vector<std::string> kw = q.keywords;
    std::sort(kw.begin(), kw.end());
    std::string s;
    for (const auto& k : kw) s += k + " ";
    out.insert(s);
  }
  return out;
}

TEST(QueryPoolTest, RunningExampleContents) {
  auto f = RunningExamplePool();
  auto qs = QueryStrings(f.pool);
  // Naive queries: the four full names.
  EXPECT_TRUE(qs.count("house noodle thai "));
  EXPECT_TRUE(qs.count("house noodle "));
  EXPECT_TRUE(qs.count("house thai "));
  EXPECT_TRUE(qs.count("house japanese noodle "));
  // Mined: "house" (freq 4) survives; "noodle" is dominated by
  // "noodle house" (identical postings {d1,d2,d4}) and "thai" is dominated
  // by "thai house" (identical postings {d1,d3}).
  EXPECT_TRUE(qs.count("house "));
  EXPECT_FALSE(qs.count("noodle "));
  EXPECT_FALSE(qs.count("thai "));
  EXPECT_EQ(f.pool.size(), 5u);
}

TEST(QueryPoolTest, LocalFrequenciesAreExact) {
  auto f = RunningExamplePool();
  for (size_t i = 0; i < f.pool.size(); ++i) {
    size_t brute = 0;
    for (const auto& d : f.docs) {
      if (d.ContainsAll(f.pool.queries[i].terms)) ++brute;
    }
    EXPECT_EQ(f.pool.local_frequency[i], brute)
        << f.pool.queries[i].Display();
    EXPECT_EQ(f.pool.local_postings[i].size(), brute);
  }
}

TEST(QueryPoolTest, DominancePruningKeepsMoreSpecificQuery) {
  auto f = RunningExamplePool();
  auto qs = QueryStrings(f.pool);
  // "thai house" (mined, freq 2: d1,d3) has the same postings as... no —
  // "thai" alone also matches exactly {d1, d3}; it is dominated.
  EXPECT_TRUE(qs.count("house thai ") || qs.count("thai "));
  // The dominated single-keyword variant must be gone when a superset query
  // with identical postings exists.
  bool has_thai = qs.count("thai ") > 0;
  bool has_thai_house = qs.count("house thai ") > 0;
  EXPECT_TRUE(has_thai_house);
  EXPECT_FALSE(has_thai);  // {thai} postings == {thai,house} postings here
}

TEST(QueryPoolTest, WithoutPruningDominatedQueriesSurvive) {
  QueryPoolOptions opt;
  opt.dominance_prune = false;
  auto f = RunningExamplePool(opt);
  auto qs = QueryStrings(f.pool);
  EXPECT_TRUE(qs.count("noodle "));
  EXPECT_TRUE(qs.count("thai "));
}

TEST(QueryPoolTest, NaiveOnlyPool) {
  QueryPoolOptions opt;
  opt.min_support = 1000000;  // effectively disable mining
  auto f = RunningExamplePool(opt);
  EXPECT_EQ(f.pool.size(), 4u);
  for (const auto& q : f.pool.queries) EXPECT_TRUE(q.is_naive);
}

TEST(QueryPoolTest, DuplicateRecordsProduceOneNaiveQuery) {
  text::TermDictionary dict;
  std::vector<text::Document> docs = {
      text::Document::FromText("alpha beta", dict),
      text::Document::FromText("beta alpha", dict)};
  QueryPoolOptions opt;
  opt.min_support = 10;  // no mined queries
  auto pool = GenerateQueryPool(docs, dict, opt);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.local_frequency[0], 2u);
}

TEST(QueryPoolTest, EmptyDocumentsYieldNoQueries) {
  text::TermDictionary dict;
  std::vector<text::Document> docs = {text::Document(), text::Document()};
  auto pool = GenerateQueryPool(docs, dict, QueryPoolOptions{});
  EXPECT_EQ(pool.size(), 0u);
}

TEST(QueryPoolTest, MaxItemsetSizeLimitsMinedQueries) {
  text::TermDictionary dict;
  std::vector<text::Document> docs = {
      text::Document::FromText("a1 b2 c3 d4 e5", dict),
      text::Document::FromText("a1 b2 c3 d4 e5", dict)};
  QueryPoolOptions opt;
  opt.dominance_prune = false;  // the naive query dominates every itemset
  opt.max_itemset_size = 2;
  auto pool = GenerateQueryPool(docs, dict, opt);
  size_t mined = 0;
  for (const auto& q : pool.queries) {
    if (q.is_naive) continue;
    EXPECT_LE(q.terms.size(), 2u);
    ++mined;
  }
  EXPECT_GT(mined, 0u);
}

TEST(QueryPoolTest, MiningTruncationIsReported) {
  text::TermDictionary dict;
  // Two identical dense records: every subset of 8 terms is frequent.
  std::vector<text::Document> docs = {
      text::Document::FromText("a1 b2 c3 d4 e5 f6 g7 h8", dict),
      text::Document::FromText("a1 b2 c3 d4 e5 f6 g7 h8", dict)};
  QueryPoolOptions opt;
  opt.max_itemset_size = 0;  // unlimited
  opt.max_mined_itemsets = 10;
  auto pool = GenerateQueryPool(docs, dict, opt);
  EXPECT_TRUE(pool.mining_truncated);

  opt.max_mined_itemsets = 0;  // unlimited: 2^8 - 1 itemsets
  auto full = GenerateQueryPool(docs, dict, opt);
  EXPECT_FALSE(full.mining_truncated);
  // Dominance pruning collapses them all onto the single maximal query
  // (identical postings {d0, d1}), which is also the records' naive query.
  EXPECT_EQ(full.size(), 1u);
  EXPECT_EQ(full.queries[0].terms.size(), 8u);
}

TEST(QueryPoolTest, DisplayJoinsKeywords) {
  auto f = RunningExamplePool();
  for (const auto& q : f.pool.queries) {
    std::string d = q.Display();
    EXPECT_FALSE(d.empty());
    // Display contains exactly |terms| - 1 spaces.
    EXPECT_EQ(static_cast<size_t>(std::count(d.begin(), d.end(), ' ')),
              q.terms.size() - 1);
  }
}

}  // namespace
}  // namespace smartcrawl::core
