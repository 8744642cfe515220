#include "core/smart_crawler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/crawl_plan.h"
#include "core/metrics.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"

namespace smartcrawl::core {
namespace {

datagen::DblpScenarioConfig SmallConfig(uint64_t seed, size_t k,
                                        size_t delta_d = 0,
                                        double error_rate = 0.0) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 6000;
  cfg.corpus.seed = seed * 31 + 7;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2500;
  cfg.local_size = 400;
  cfg.delta_d = delta_d;
  cfg.top_k = k;
  cfg.error_rate = error_rate;
  cfg.seed = seed;
  return cfg;
}

SmartCrawlOptions Opts(SelectionPolicy policy) {
  SmartCrawlOptions opt;
  opt.policy = policy;
  opt.local_text_fields = {"title", "venue", "authors"};
  return opt;
}

size_t RunPolicy(const datagen::Scenario& s, SelectionPolicy policy,
                 size_t budget, const sample::HiddenSample* sample,
                 CrawlResult* out = nullptr) {
  const hidden::HiddenDatabase* oracle =
      policy == SelectionPolicy::kIdeal ? s.hidden.get() : nullptr;
  auto crawler = SmartCrawler::Create(&s.local, Opts(policy), sample, oracle);
  EXPECT_TRUE(crawler.ok()) << crawler.status();
  if (!crawler.ok()) return 0;
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface iface(s.hidden.get(), budget);
  auto result = crawler.value()->Crawl(&iface, budget);
  EXPECT_TRUE(result.ok()) << result.status();
  if (out) *out = *result;
  return FinalCoverage(s.local, *result);
}

// --- Lemma 1: with D ⊆ H, no top-k, exact copies, QSel-Simple equals
// QSel-Ideal. ---------------------------------------------------------------

class Lemma1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma1Test, SimpleEqualsIdealUnderAssumptions) {
  auto cfg = SmallConfig(GetParam(), /*k=*/100000);  // k >= |H|: no top-k
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  const size_t budget = 60;
  size_t ideal = RunPolicy(*s, SelectionPolicy::kIdeal, budget, nullptr);
  size_t simple = RunPolicy(*s, SelectionPolicy::kSimple, budget, nullptr);
  EXPECT_EQ(ideal, simple);
  EXPECT_GT(ideal, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Test, ::testing::Values(1, 2, 3));

// --- Lemma 2: QSel-Bound covers at least (1 - |ΔD|/b) * N_ideal. -----------

struct Lemma2Params {
  uint64_t seed;
  size_t delta_d;
  size_t budget;
};

class Lemma2Test : public ::testing::TestWithParam<Lemma2Params> {};

TEST_P(Lemma2Test, BoundHolds) {
  const auto& p = GetParam();
  auto cfg = SmallConfig(p.seed, /*k=*/100000, p.delta_d);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  size_t ideal = RunPolicy(*s, SelectionPolicy::kIdeal, p.budget, nullptr);
  size_t bound = RunPolicy(*s, SelectionPolicy::kBound, p.budget, nullptr);
  double guarantee =
      (1.0 - static_cast<double>(p.delta_d) / static_cast<double>(p.budget)) *
      static_cast<double>(ideal);
  EXPECT_GE(static_cast<double>(bound) + 1e-9, guarantee)
      << "ideal=" << ideal << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(Grid, Lemma2Test,
                         ::testing::Values(Lemma2Params{1, 20, 80},
                                           Lemma2Params{2, 40, 80},
                                           Lemma2Params{3, 10, 40},
                                           Lemma2Params{4, 60, 80}));

// --- Estimator policies end-to-end. ----------------------------------------

TEST(SmartCrawlerTest, BiasedEstimatorApproachesIdealWithDecentSample) {
  auto cfg = SmallConfig(7, /*k=*/50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 99);
  const size_t budget = 80;
  size_t ideal = RunPolicy(*s, SelectionPolicy::kIdeal, budget, nullptr);
  size_t biased =
      RunPolicy(*s, SelectionPolicy::kEstBiased, budget, &sample);
  EXPECT_GT(biased, 0u);
  // The paper finds SMARTCRAWL-B within a few percent of IDEALCRAWL; allow
  // a generous margin on this small instance.
  EXPECT_GE(static_cast<double>(biased), 0.5 * static_cast<double>(ideal));
}

TEST(SmartCrawlerTest, DeltaDRemovalPreventsWastedBudget) {
  auto cfg = SmallConfig(9, /*k=*/100000, /*delta_d=*/80);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 5);

  SmartCrawlOptions with = Opts(SelectionPolicy::kEstBiased);
  SmartCrawlOptions without = Opts(SelectionPolicy::kEstBiased);
  without.remove_unmatched_solid = false;

  const size_t budget = 80;
  s->hidden->ResetQueryCounter();
  hidden::BudgetedInterface i1(s->hidden.get(), budget);
  auto c1 = SmartCrawler::Create(&s->local, std::move(with), &sample);
  ASSERT_TRUE(c1.ok());
  auto r1 = c1.value()->Crawl(&i1, budget);
  ASSERT_TRUE(r1.ok());

  s->hidden->ResetQueryCounter();
  hidden::BudgetedInterface i2(s->hidden.get(), budget);
  auto c2 = SmartCrawler::Create(&s->local, std::move(without), &sample);
  ASSERT_TRUE(c2.ok());
  auto r2 = c2.value()->Crawl(&i2, budget);
  ASSERT_TRUE(r2.ok());

  // With ΔD prediction the crawler should do at least as well.
  EXPECT_GE(FinalCoverage(s->local, *r1) + 3,
            FinalCoverage(s->local, *r2));
}

TEST(SmartCrawlerTest, CrawlIsResumable) {
  // A single 10-query crawl and a 5+5 resumed crawl must issue the exact
  // same query sequence — the selection state survives across sessions.
  auto cfg = SmallConfig(11, 50);
  auto s1 = datagen::BuildDblpScenario(cfg);
  auto s2 = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());

  auto one_shot =
      SmartCrawler::Create(&s1->local, Opts(SelectionPolicy::kSimple));
  ASSERT_TRUE(one_shot.ok());
  hidden::BudgetedInterface i1(s1->hidden.get(), 10);
  auto full = one_shot.value()->Crawl(&i1, 10);
  ASSERT_TRUE(full.ok());

  auto resumed =
      SmartCrawler::Create(&s2->local, Opts(SelectionPolicy::kSimple));
  ASSERT_TRUE(resumed.ok());
  hidden::BudgetedInterface i2(s2->hidden.get(), 10);
  auto first = resumed.value()->Crawl(&i2, 5);
  ASSERT_TRUE(first.ok());
  auto second = resumed.value()->Crawl(&i2, 5);
  ASSERT_TRUE(second.ok());

  std::vector<std::string> resumed_queries;
  for (const auto& it : first->iterations) resumed_queries.push_back(it.query);
  for (const auto& it : second->iterations) {
    resumed_queries.push_back(it.query);
  }
  ASSERT_EQ(resumed_queries.size(), full->iterations.size());
  for (size_t i = 0; i < resumed_queries.size(); ++i) {
    EXPECT_EQ(resumed_queries[i], full->iterations[i].query) << i;
  }
}

TEST(SmartCrawlerTest, ResumeRejectsDifferentTopK) {
  auto cfg = SmallConfig(12, 50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto crawler =
      SmartCrawler::Create(&s->local, Opts(SelectionPolicy::kSimple));
  ASSERT_TRUE(crawler.ok());
  hidden::BudgetedInterface iface(s->hidden.get(), 5);
  ASSERT_TRUE(crawler.value()->Crawl(&iface, 3).ok());

  // A second interface with a different k must be rejected.
  datagen::DblpScenarioConfig cfg2 = SmallConfig(12, 10);
  auto s2 = datagen::BuildDblpScenario(cfg2);
  ASSERT_TRUE(s2.ok());
  hidden::BudgetedInterface other(s2->hidden.get(), 5);
  auto again = crawler.value()->Crawl(&other, 3);
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsInvalidArgument());
}

TEST(SmartCrawlerTest, RespectsBudgetExactly) {
  auto cfg = SmallConfig(13, 50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 1);
  CrawlResult result;
  RunPolicy(*s, SelectionPolicy::kEstBiased, 25, &sample, &result);
  EXPECT_LE(result.queries_issued, 25u);
  EXPECT_LE(s->hidden->num_queries_issued(), 25u);
}

TEST(SmartCrawlerTest, KeepCrawledRecordsDeduplicates) {
  auto cfg = SmallConfig(17, 50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 2);
  SmartCrawlOptions opt = Opts(SelectionPolicy::kEstBiased);
  opt.keep_crawled_records = true;
  auto crawler = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler.ok());
  hidden::BudgetedInterface iface(s->hidden.get(), 30);
  auto result = crawler.value()->Crawl(&iface, 30);
  ASSERT_TRUE(result.ok());
  std::set<table::EntityId> ids;
  for (const auto& rec : result->crawled_records) {
    EXPECT_TRUE(ids.insert(rec.entity_id).second) << "duplicate crawled rec";
  }
  EXPECT_GT(result->crawled_records.size(), 0u);
}

TEST(SmartCrawlerTest, JaccardErModeCoversDespiteDirtyTitles) {
  auto cfg = SmallConfig(19, /*k=*/50, /*delta_d=*/0, /*error_rate=*/0.3);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 3);
  SmartCrawlOptions opt = Opts(SelectionPolicy::kEstBiased);
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.7;
  auto crawler = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler.ok());
  hidden::BudgetedInterface iface(s->hidden.get(), 80);
  auto result = crawler.value()->Crawl(&iface, 80);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(FinalCoverage(s->local, *result), 20u);
}

TEST(SmartCrawlerTest, PlanRejectsJaccardThresholdOutsideUnitInterval) {
  auto s = datagen::BuildDblpScenario(SmallConfig(19, /*k=*/50));
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 3);
  auto build = [&](match::ErConfig er) {
    SmartCrawlOptions opt = Opts(SelectionPolicy::kEstBiased);
    opt.er = er;
    return CrawlPlan::Build(&s->local, std::move(opt), &sample);
  };
  // At 0 every local record would match every sample record, shared token
  // or not; the prefix-filtered sample match cannot produce that.
  for (double bad : {0.0, -0.5, 1.5, std::nan("")}) {
    auto plan = build(match::ErConfig{match::ErMode::kJaccard, bad});
    ASSERT_FALSE(plan.ok()) << bad;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(build(match::ErConfig{match::ErMode::kJaccard, 1.0}).ok());
  EXPECT_TRUE(build(match::ErConfig{match::ErMode::kJaccard, 1e-9}).ok());
  // Other ER modes ignore the threshold.
  EXPECT_TRUE(build(match::ErConfig{match::ErMode::kExact, 0.0}).ok());
}

TEST(SmartCrawlerTest, DeterministicAcrossRuns) {
  auto cfg = SmallConfig(23, 50);
  auto s1 = datagen::BuildDblpScenario(cfg);
  auto s2 = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  auto sample1 = sample::BernoulliSample(*s1->hidden, 0.02, 4);
  auto sample2 = sample::BernoulliSample(*s2->hidden, 0.02, 4);
  CrawlResult r1, r2;
  RunPolicy(*s1, SelectionPolicy::kEstBiased, 40, &sample1, &r1);
  RunPolicy(*s2, SelectionPolicy::kEstBiased, 40, &sample2, &r2);
  ASSERT_EQ(r1.iterations.size(), r2.iterations.size());
  for (size_t i = 0; i < r1.iterations.size(); ++i) {
    EXPECT_EQ(r1.iterations[i].query, r2.iterations[i].query);
  }
}

TEST(SmartCrawlerTest, StatsReflectEngineWork) {
  auto cfg = SmallConfig(31, 50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 6);
  auto crawler = SmartCrawler::Create(
      &s->local, Opts(SelectionPolicy::kEstBiased), &sample);
  ASSERT_TRUE(crawler.ok());
  hidden::BudgetedInterface iface(s->hidden.get(), 30);
  auto r = crawler.value()->Crawl(&iface, 30);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.pool_size, crawler.value()->pool().size());
  EXPECT_GT(r->stats.pool_size, 0u);
  // Pages were fetched; fan-out updates happened for covered records.
  size_t page_total = 0;
  for (const auto& it : r->iterations) page_total += it.page_size;
  EXPECT_EQ(r->stats.records_fetched, page_total);
  EXPECT_GT(r->stats.fanout_updates, 0u);
  // The lazy queue repaired far fewer entries than pool_size * queries —
  // the whole point of the Sec. 6.3 mechanism.
  EXPECT_LT(r->stats.pq_recomputes,
            r->stats.pool_size * r->queries_issued);
}

TEST(SmartCrawlerTest, ZeroBudgetIssuesNothing) {
  auto cfg = SmallConfig(29, 50);
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto crawler =
      SmartCrawler::Create(&s->local, Opts(SelectionPolicy::kSimple));
  ASSERT_TRUE(crawler.ok());
  hidden::BudgetedInterface iface(s->hidden.get(), 0);
  auto result = crawler.value()->Crawl(&iface, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries_issued, 0u);
}

}  // namespace
}  // namespace smartcrawl::core
