#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "sample/sampler.h"

/// The parallel substrate's core contract: every `num_threads` knob yields
/// BIT-IDENTICAL results to the sequential (num_threads = 1) path. These
/// tests pin that contract for the query pool, the similarity joins, and a
/// full crawl under every selection policy, plus the Create() validation
/// that replaced the old constructor + init_status_ pattern.

namespace smartcrawl::core {
namespace {

datagen::Scenario MakeScenario(uint64_t seed) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 5000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2000;
  cfg.local_size = 300;
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = seed;
  auto s = datagen::BuildDblpScenario(cfg);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

void ExpectPoolsEqual(const QueryPool& a, const QueryPool& b,
                      unsigned threads) {
  ASSERT_EQ(a.size(), b.size()) << "num_threads=" << threads;
  for (size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a.queries[q].terms, b.queries[q].terms) << "query " << q;
    EXPECT_EQ(a.queries[q].keywords, b.queries[q].keywords) << "query " << q;
    EXPECT_EQ(a.queries[q].is_naive, b.queries[q].is_naive) << "query " << q;
    EXPECT_EQ(a.local_frequency[q], b.local_frequency[q]) << "query " << q;
    EXPECT_TRUE(std::ranges::equal(a.local_postings[q], b.local_postings[q]))
        << "query " << q;
  }
  EXPECT_EQ(a.mining_truncated, b.mining_truncated);
}

TEST(ParallelDeterminismTest, QueryPoolBitIdenticalAcrossThreadCounts) {
  auto s = MakeScenario(31);
  text::TermDictionary dict;
  auto docs = s.local.BuildDocuments(dict, s.local_text_fields);

  QueryPoolOptions opt;
  opt.min_support = 2;
  opt.num_threads = 1;
  QueryPool seq = GenerateQueryPool(docs, dict, opt);
  ASSERT_GT(seq.size(), 0u);

  for (unsigned threads : {2u, 8u}) {
    opt.num_threads = threads;
    QueryPool par = GenerateQueryPool(docs, dict, opt);
    ExpectPoolsEqual(seq, par, threads);
  }
}

TEST(ParallelDeterminismTest, JoinsBitIdenticalAcrossThreadCounts) {
  auto s = MakeScenario(32);
  text::TermDictionary dict;
  auto left = s.local.BuildDocuments(dict, s.local_text_fields);
  // Right side: a shifted slice of the same table so there are real
  // near-matches at various similarities.
  std::vector<text::Document> right(left.begin() + 50, left.end());

  auto seq_nl = match::JaccardJoin(left, right, 0.6, 1);
  auto seq_pf = match::PrefixFilterJaccardJoin(left, right, 0.6, 1);
  ASSERT_GT(seq_nl.size(), 0u);
  for (unsigned threads : {2u, 8u}) {
    auto par_nl = match::JaccardJoin(left, right, 0.6, threads);
    auto par_pf = match::PrefixFilterJaccardJoin(left, right, 0.6, threads);
    auto par_auto = match::AutoJaccardJoin(left, right, 0.6, threads);
    ASSERT_EQ(par_nl.size(), seq_nl.size()) << "num_threads=" << threads;
    for (size_t i = 0; i < seq_nl.size(); ++i) {
      EXPECT_EQ(par_nl[i].left, seq_nl[i].left);
      EXPECT_EQ(par_nl[i].right, seq_nl[i].right);
      EXPECT_EQ(par_nl[i].similarity, seq_nl[i].similarity);
    }
    ASSERT_EQ(par_pf.size(), seq_pf.size()) << "num_threads=" << threads;
    for (size_t i = 0; i < seq_pf.size(); ++i) {
      EXPECT_EQ(par_pf[i].left, seq_pf[i].left);
      EXPECT_EQ(par_pf[i].right, seq_pf[i].right);
      EXPECT_EQ(par_pf[i].similarity, seq_pf[i].similarity);
    }
    // AutoJaccardJoin forwards to the prefix filter, whose pair set equals
    // the nested loop's.
    ASSERT_EQ(par_auto.size(), seq_nl.size());
  }

  auto seq_best = match::BestMatchPerLeft(left, right, 0.6, 1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(match::BestMatchPerLeft(left, right, 0.6, threads), seq_best);
  }
}

class PolicyDeterminismTest
    : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(PolicyDeterminismTest, CrawlBitIdenticalAcrossThreadCounts) {
  const SelectionPolicy policy = GetParam();
  const size_t budget = 40;

  auto run = [&](unsigned threads) -> CrawlResult {
    auto s = MakeScenario(33);
    auto sample = sample::BernoulliSample(*s.hidden, 0.02, 11);
    SmartCrawlOptions opt;
    opt.policy = policy;
    opt.local_text_fields = s.local_text_fields;
    opt.num_threads = threads;
    const hidden::HiddenDatabase* oracle =
        policy == SelectionPolicy::kIdeal ? s.hidden.get() : nullptr;
    auto crawler = SmartCrawler::Create(&s.local, std::move(opt), &sample,
                                        oracle);
    EXPECT_TRUE(crawler.ok()) << crawler.status();
    hidden::BudgetedInterface iface(s.hidden.get(), budget);
    auto r = crawler.value()->Crawl(&iface, budget);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  };

  CrawlResult seq = run(1);
  for (unsigned threads : {2u, 8u}) {
    CrawlResult par = run(threads);
    EXPECT_EQ(par.queries_issued, seq.queries_issued)
        << "num_threads=" << threads;
    EXPECT_EQ(par.stopped_early, seq.stopped_early);
    EXPECT_EQ(par.covered_local_ids, seq.covered_local_ids);
    ASSERT_EQ(par.iterations.size(), seq.iterations.size());
    for (size_t i = 0; i < seq.iterations.size(); ++i) {
      EXPECT_EQ(par.iterations[i].query, seq.iterations[i].query) << i;
      EXPECT_EQ(par.iterations[i].estimated_benefit,
                seq.iterations[i].estimated_benefit)
          << i;
      EXPECT_EQ(par.iterations[i].page_entities, seq.iterations[i].page_entities)
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDeterminismTest,
    ::testing::Values(SelectionPolicy::kSimple, SelectionPolicy::kBound,
                      SelectionPolicy::kEstBiased,
                      SelectionPolicy::kEstUnbiased, SelectionPolicy::kIdeal),
    [](const ::testing::TestParamInfo<SelectionPolicy>& pinfo) {
      switch (pinfo.param) {
        case SelectionPolicy::kSimple: return std::string("Simple");
        case SelectionPolicy::kBound: return std::string("Bound");
        case SelectionPolicy::kEstBiased: return std::string("EstBiased");
        case SelectionPolicy::kEstUnbiased: return std::string("EstUnbiased");
        case SelectionPolicy::kIdeal: return std::string("Ideal");
      }
      return std::string("Unknown");
    });

TEST(SmartCrawlerCreateTest, RejectsNullLocalTable) {
  auto crawler = SmartCrawler::Create(nullptr, SmartCrawlOptions{});
  ASSERT_FALSE(crawler.ok());
  EXPECT_TRUE(crawler.status().IsInvalidArgument());
}

TEST(SmartCrawlerCreateTest, RejectsEstimatorPoliciesWithoutSample) {
  auto s = MakeScenario(34);
  for (SelectionPolicy policy :
       {SelectionPolicy::kEstBiased, SelectionPolicy::kEstUnbiased}) {
    SmartCrawlOptions opt;
    opt.policy = policy;
    opt.local_text_fields = s.local_text_fields;
    auto crawler = SmartCrawler::Create(&s.local, std::move(opt));
    ASSERT_FALSE(crawler.ok());
    EXPECT_TRUE(crawler.status().IsInvalidArgument());
  }
}

TEST(SmartCrawlerCreateTest, RejectsIdealPolicyWithoutOracle) {
  auto s = MakeScenario(35);
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kIdeal;
  opt.local_text_fields = s.local_text_fields;
  auto crawler = SmartCrawler::Create(&s.local, std::move(opt));
  ASSERT_FALSE(crawler.ok());
  EXPECT_TRUE(crawler.status().IsInvalidArgument());
}

}  // namespace
}  // namespace smartcrawl::core
