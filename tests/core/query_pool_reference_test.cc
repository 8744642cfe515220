// Differential test of query-pool generation (paper Sec. 3.1) against a
// naive reference: q(D) by scanning every record with ContainsAll, and
// dominance by comparing every pair of candidates with equal q(D).
//
// Both sides take their candidate itemsets from the same FP-growth run
// (the miner has its own differential test against Apriori); what is
// checked here is everything after mining: deduplication, q(D), dominance,
// the pool-size cap and the materialized pool, at 1 and 4 threads.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_pool.h"
#include "fpm/itemset.h"
#include "util/random.h"

namespace smartcrawl::core {
namespace {

using text::TermId;

struct Corpus {
  text::TermDictionary dict;
  std::vector<text::Document> docs;
};

/// Seeded corpus over terms "t0".."t{vocab-1}". Term ids are skewed toward
/// small values so itemsets repeat (mined queries, equal q(D) buckets); a
/// few records are exact duplicates of earlier ones and some are empty.
Corpus MakeCorpus(uint64_t seed, size_t num_docs, size_t vocab,
                  size_t max_len) {
  Corpus c;
  for (size_t t = 0; t < vocab; ++t) c.dict.Intern("t" + std::to_string(t));
  smartcrawl::Rng rng(seed);
  for (size_t d = 0; d < num_docs; ++d) {
    if (d > 0 && rng.UniformIndex(10) == 0) {
      c.docs.push_back(c.docs[rng.UniformIndex(d)]);
      continue;
    }
    const size_t len = rng.UniformIndex(max_len + 1);  // 0 = empty record
    std::vector<TermId> terms;
    for (size_t i = 0; i < len; ++i) {
      terms.push_back(
          static_cast<TermId>(rng.UniformIndex(1 + rng.UniformIndex(vocab))));
    }
    c.docs.emplace_back(std::move(terms));
  }
  return c;
}

struct RefQuery {
  std::vector<TermId> terms;
  bool is_naive = false;
  std::vector<index::DocIndex> postings;
};

/// The pool by definition, with no index, hashing or bucketing.
std::vector<RefQuery> ReferencePool(const Corpus& c,
                                    const QueryPoolOptions& options,
                                    const fpm::MiningResult& mined) {
  // Candidates in pool order, exact dedup keeping the first occurrence.
  std::vector<RefQuery> cand;
  std::set<std::vector<TermId>> seen;
  auto add = [&](const std::vector<TermId>& terms, bool naive) {
    if (terms.empty() || !seen.insert(terms).second) return;
    cand.push_back({terms, naive, {}});
  };
  if (options.include_naive) {
    for (const auto& doc : c.docs) add(doc.terms(), true);
  }
  for (const auto& fis : mined.itemsets) add(fis.items, false);

  // q(D) by scanning every record.
  for (RefQuery& q : cand) {
    for (size_t d = 0; d < c.docs.size(); ++d) {
      if (c.docs[d].ContainsAll(q.terms)) {
        q.postings.push_back(static_cast<index::DocIndex>(d));
      }
    }
  }

  // |q(D)| = 0 leaves the space Q; a query is dominated when another
  // candidate with the same q(D) has strictly more keywords, all of
  // q's among them.
  std::vector<bool> keep(cand.size());
  for (size_t i = 0; i < cand.size(); ++i) {
    keep[i] = !cand[i].postings.empty();
    if (!keep[i] || !options.dominance_prune) continue;
    for (size_t j = 0; j < cand.size(); ++j) {
      if (cand[j].postings == cand[i].postings &&
          cand[j].terms.size() > cand[i].terms.size() &&
          std::includes(cand[j].terms.begin(), cand[j].terms.end(),
                        cand[i].terms.begin(), cand[i].terms.end())) {
        keep[i] = false;
        break;
      }
    }
  }

  // Cap: every naive query stays; mined ones by |q(D)| descending, then by
  // candidate order.
  size_t kept = 0;
  size_t kept_naive = 0;
  std::vector<size_t> mined_kept;
  for (size_t i = 0; i < cand.size(); ++i) {
    if (!keep[i]) continue;
    ++kept;
    if (cand[i].is_naive) {
      ++kept_naive;
    } else {
      mined_kept.push_back(i);
    }
  }
  if (options.max_pool_size > 0 && kept > options.max_pool_size) {
    std::stable_sort(mined_kept.begin(), mined_kept.end(),
                     [&](size_t a, size_t b) {
                       return cand[a].postings.size() >
                              cand[b].postings.size();
                     });
    const size_t budget = options.max_pool_size > kept_naive
                              ? options.max_pool_size - kept_naive
                              : 0;
    for (size_t m = budget; m < mined_kept.size(); ++m) {
      keep[mined_kept[m]] = false;
    }
  }

  std::vector<RefQuery> out;
  for (size_t i = 0; i < cand.size(); ++i) {
    if (keep[i]) out.push_back(cand[i]);
  }
  return out;
}

struct CorpusShape {
  uint64_t seed;
  size_t num_docs;
  size_t vocab;
  size_t max_len;
};

class QueryPoolReferenceTest : public ::testing::TestWithParam<CorpusShape> {
};

TEST_P(QueryPoolReferenceTest, MatchesNaiveReference) {
  const CorpusShape& shape = GetParam();
  const Corpus c =
      MakeCorpus(shape.seed, shape.num_docs, shape.vocab, shape.max_len);

  const QueryPoolOptions defaults;
  std::vector<std::vector<TermId>> txns;
  for (const auto& doc : c.docs) txns.push_back(doc.terms());
  fpm::MiningOptions mopt;
  mopt.min_support = defaults.min_support;
  mopt.max_itemset_size = defaults.max_itemset_size;
  mopt.max_results = defaults.max_mined_itemsets;
  const fpm::MiningResult mined = fpm::MineFrequentItemsets(txns, mopt);
  std::map<std::vector<TermId>, uint32_t> support;
  for (const auto& fis : mined.itemsets) support[fis.items] = fis.support;

  for (bool prune : {true, false}) {
    QueryPoolOptions uncapped;
    uncapped.dominance_prune = prune;
    size_t naive = 0;
    size_t mined_total = 0;
    for (const RefQuery& q : ReferencePool(c, uncapped, mined)) {
      ++(q.is_naive ? naive : mined_total);
    }
    ASSERT_GT(mined_total, 1u);
    // No cap, a cap that keeps half of the mined queries, and one below
    // the naive count (only naive queries survive).
    for (size_t cap : {size_t{0}, naive + mined_total / 2, size_t{1}}) {
      QueryPoolOptions options = uncapped;
      options.max_pool_size = cap;
      const std::vector<RefQuery> expect = ReferencePool(c, options, mined);
      ASSERT_FALSE(expect.empty());

      for (unsigned threads : {1u, 4u}) {
        options.num_threads = threads;
        const QueryPool pool = GenerateQueryPool(c.docs, c.dict, options);
        SCOPED_TRACE(::testing::Message()
                     << "prune " << prune << " cap " << cap << " threads "
                     << threads);
        EXPECT_EQ(pool.mining_truncated, mined.truncated);
        ASSERT_EQ(pool.size(), expect.size());
        ASSERT_EQ(pool.local_frequency.size(), expect.size());
        ASSERT_EQ(pool.local_postings.num_rows(), expect.size());
        size_t mined_queries = 0;
        for (size_t i = 0; i < expect.size(); ++i) {
          const Query& q = pool.queries[i];
          EXPECT_EQ(q.terms, expect[i].terms) << "query " << i;
          EXPECT_EQ(q.is_naive, expect[i].is_naive) << "query " << i;
          ASSERT_EQ(q.keywords.size(), q.terms.size());
          for (size_t k = 0; k < q.terms.size(); ++k) {
            EXPECT_EQ(q.keywords[k], c.dict.TermOf(q.terms[k]));
          }
          const auto row = pool.local_postings[i];
          EXPECT_EQ(std::vector<index::DocIndex>(row.begin(), row.end()),
                    expect[i].postings)
              << "query " << i;
          EXPECT_EQ(pool.local_frequency[i], expect[i].postings.size());
          if (!q.is_naive) {
            // A mined query's |q(D)| is its FP-growth support.
            ++mined_queries;
            auto it = support.find(q.terms);
            ASSERT_NE(it, support.end()) << "query " << i;
            EXPECT_EQ(pool.local_frequency[i], it->second) << "query " << i;
          }
        }
        EXPECT_EQ(mined_queries, cap == 0 ? mined_total
                                 : cap == 1 ? 0
                                            : mined_total / 2);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededCorpora, QueryPoolReferenceTest,
    ::testing::Values(CorpusShape{1, 20, 6, 4},
                      CorpusShape{2, 40, 10, 5},
                      // >= kBitmapMinDocs records: dense terms get bitmaps.
                      CorpusShape{3, 150, 16, 6},
                      CorpusShape{4, 300, 40, 7}));

}  // namespace
}  // namespace smartcrawl::core
