#include "core/baseline_crawlers.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"

namespace smartcrawl::core {
namespace {

datagen::Scenario MakeScenario(uint64_t seed) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 5000;
  cfg.corpus.seed = seed + 100;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2000;
  cfg.local_size = 300;
  cfg.top_k = 50;
  cfg.seed = seed;
  auto s = datagen::BuildDblpScenario(cfg);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(NaiveCrawlTest, OneQueryPerRecordCoversMostOfCleanData) {
  auto s = MakeScenario(1);
  hidden::BudgetedInterface iface(s.hidden.get(), 300);
  NaiveCrawlOptions opt;
  opt.query_fields = s.local_text_fields;
  auto r = NaiveCrawl(s.local, &iface, 300, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->queries_issued, 300u);
  // Exact copies + very specific queries: nearly all records found (a full
  // title+venue+authors query can still overflow in pathological cases).
  EXPECT_GT(FinalCoverage(s.local, *r), 280u);
}

TEST(NaiveCrawlTest, RespectsSmallBudget) {
  auto s = MakeScenario(2);
  hidden::BudgetedInterface iface(s.hidden.get(), 10);
  NaiveCrawlOptions opt;
  opt.query_fields = s.local_text_fields;
  auto r = NaiveCrawl(s.local, &iface, 10, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->queries_issued, 10u);
  EXPECT_LE(FinalCoverage(s.local, *r), 10u * s.hidden->top_k());
}

TEST(NaiveCrawlTest, RandomOrderDependsOnSeed) {
  auto s = MakeScenario(3);
  NaiveCrawlOptions a;
  a.query_fields = s.local_text_fields;
  a.seed = 1;
  NaiveCrawlOptions b = a;
  b.seed = 2;
  hidden::BudgetedInterface i1(s.hidden.get(), 5);
  hidden::BudgetedInterface i2(s.hidden.get(), 5);
  auto ra = NaiveCrawl(s.local, &i1, 5, a);
  auto rb = NaiveCrawl(s.local, &i2, 5, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  bool any_diff = false;
  for (size_t i = 0; i < 5; ++i) {
    any_diff |= (ra->iterations[i].query != rb->iterations[i].query);
  }
  EXPECT_TRUE(any_diff);
}

TEST(NaiveCrawlTest, KeepsCrawledRecordsWhenAsked) {
  auto s = MakeScenario(4);
  hidden::BudgetedInterface iface(s.hidden.get(), 20);
  NaiveCrawlOptions opt;
  opt.query_fields = s.local_text_fields;
  opt.keep_crawled_records = true;
  auto r = NaiveCrawl(s.local, &iface, 20, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->crawled_records.size(), 0u);
}

TEST(FullCrawlTest, IssuesKeywordsByDescendingSampleFrequency) {
  auto s = MakeScenario(5);
  auto sample = sample::BernoulliSample(*s.hidden, 0.05, 7);
  hidden::BudgetedInterface iface(s.hidden.get(), 30);
  auto r = FullCrawl(sample, &iface, 30, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->queries_issued, 30u);
  // The recorded estimated_benefit is the sample frequency: non-increasing.
  for (size_t i = 1; i < r->iterations.size(); ++i) {
    EXPECT_LE(r->iterations[i].estimated_benefit,
              r->iterations[i - 1].estimated_benefit);
  }
}

TEST(FullCrawlTest, CoversSomethingButIgnoresLocality) {
  auto s = MakeScenario(6);
  auto sample = sample::BernoulliSample(*s.hidden, 0.05, 9);
  hidden::BudgetedInterface iface(s.hidden.get(), 60);
  auto r = FullCrawl(sample, &iface, 60, {});
  ASSERT_TRUE(r.ok());
  size_t cov = FinalCoverage(s.local, *r);
  // |D|/|H| = 15%: crawled pages hit local records only incidentally.
  EXPECT_LT(cov, 200u);
}

TEST(FullCrawlTest, StopsWhenPoolDry) {
  auto s = MakeScenario(7);
  // A tiny sample yields a small keyword pool; a huge budget cannot be
  // spent.
  auto sample = sample::BernoulliSample(*s.hidden, 0.002, 11);
  hidden::BudgetedInterface iface(s.hidden.get(), 100000);
  auto r = FullCrawl(sample, &iface, 100000, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stopped_early);
  EXPECT_LT(r->queries_issued, 100000u);
}

}  // namespace
}  // namespace smartcrawl::core
