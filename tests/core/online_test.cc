#include "core/online.h"

#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"

namespace smartcrawl::core {
namespace {

datagen::Scenario MakeScenario(uint64_t seed) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 6000;
  cfg.corpus.seed = seed + 41;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2500;
  cfg.local_size = 400;
  cfg.top_k = 50;
  cfg.seed = seed;
  auto s = datagen::BuildDblpScenario(cfg);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

OnlineCrawlOptions BaseOptions() {
  OnlineCrawlOptions opt;
  opt.smart.policy = SelectionPolicy::kEstBiased;
  opt.smart.local_text_fields = {"title", "venue", "authors"};
  opt.target_sample_size = 50;
  opt.seed = 5;
  return opt;
}

TEST(OnlineSampleCrawlTest, StaysWithinTotalBudget) {
  auto s = MakeScenario(1);
  hidden::BudgetedInterface iface(s.hidden.get(), 100);
  auto r = OnlineSampleCrawl(s.local, &iface, 100, BaseOptions());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_LE(r->queries_issued, 100u);
  EXPECT_EQ(r->queries_issued, iface.num_queries_issued());
}

TEST(OnlineSampleCrawlTest, CoversSubstantially) {
  auto s = MakeScenario(2);
  hidden::BudgetedInterface iface(s.hidden.get(), 120);
  auto r = OnlineSampleCrawl(s.local, &iface, 120, BaseOptions());
  ASSERT_TRUE(r.ok());
  // The sampling phase costs ~20% of budget but the crawl still covers a
  // large share of D.
  EXPECT_GT(FinalCoverage(s.local, *r), 150u);
}

TEST(OnlineSampleCrawlTest, SamplingPagesCountTowardCoverage) {
  auto s = MakeScenario(3);
  hidden::BudgetedInterface iface(s.hidden.get(), 60);
  auto r = OnlineSampleCrawl(s.local, &iface, 60, BaseOptions());
  ASSERT_TRUE(r.ok());
  // Iterations include the sampling queries (they come first and carry
  // pages).
  ASSERT_GT(r->iterations.size(), 0u);
  bool sampling_page_nonempty = false;
  for (size_t i = 0; i < r->iterations.size() / 2; ++i) {
    sampling_page_nonempty |= (r->iterations[i].page_size > 0);
  }
  EXPECT_TRUE(sampling_page_nonempty);
}

TEST(OnlineSampleCrawlTest, CrawledRecordsHoldEveryPageEntityOnce) {
  // The sampling phase's pages count: every distinct entity on any page of
  // either phase is in crawled_records, and only once.
  auto s = MakeScenario(6);
  hidden::BudgetedInterface iface(s.hidden.get(), 80);
  auto opt = BaseOptions();
  opt.smart.keep_crawled_records = true;
  auto r = OnlineSampleCrawl(s.local, &iface, 80, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  std::unordered_set<table::EntityId> on_pages;
  for (const IterationLog& it : r->iterations) {
    on_pages.insert(it.page_entities.begin(), it.page_entities.end());
  }
  ASSERT_FALSE(on_pages.empty());
  std::unordered_map<table::EntityId, size_t> kept;
  for (const table::Record& rec : r->crawled_records) ++kept[rec.entity_id];
  EXPECT_EQ(kept.size(), on_pages.size());
  for (table::EntityId e : on_pages) EXPECT_EQ(kept[e], 1u) << "entity " << e;
}

TEST(OnlineSampleCrawlTest, RejectsBadConfigs) {
  auto s = MakeScenario(4);
  hidden::BudgetedInterface iface(s.hidden.get(), 10);
  auto opt = BaseOptions();
  opt.smart.policy = SelectionPolicy::kSimple;
  EXPECT_FALSE(OnlineSampleCrawl(s.local, &iface, 10, opt).ok());
}

TEST(OnlineSampleCrawlTest, ComparableToOfflineSample) {
  auto s = MakeScenario(5);
  const size_t budget = 120;

  hidden::BudgetedInterface i1(s.hidden.get(), budget);
  auto online = OnlineSampleCrawl(s.local, &i1, budget, BaseOptions());
  ASSERT_TRUE(online.ok());

  auto offline_sample = sample::BernoulliSample(*s.hidden, 0.02, 9);
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kEstBiased;
  opt.local_text_fields = {"title", "venue", "authors"};
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface i2(s.hidden.get(), budget);
  auto crawler = SmartCrawler::Create(&s.local, std::move(opt), &offline_sample);
  ASSERT_TRUE(crawler.ok()) << crawler.status();
  auto offline = crawler.value()->Crawl(&i2, budget);
  ASSERT_TRUE(offline.ok());

  size_t cov_online = FinalCoverage(s.local, *online);
  size_t cov_offline = FinalCoverage(s.local, *offline);
  // Online pays the sampling cost out of its budget: it should be within
  // a reasonable factor of the offline-sample run, not degenerate.
  EXPECT_GT(cov_online, cov_offline / 3);
}

}  // namespace
}  // namespace smartcrawl::core
