#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/search_interface.h"
#include "sample/sampler.h"
#include "util/status.h"

/// Regression tests for graceful degradation: a transport-level
/// kUnavailable that escapes the resilient client (or hits a crawler with
/// no net:: stack at all) must never abort a crawl — the query is skipped,
/// counted, and the crawl keeps going.

namespace smartcrawl::net {
namespace {

/// Deterministically fails every `period`-th Search call with the given
/// status; all other calls pass through to the inner interface.
class PeriodicFailureInterface : public hidden::KeywordSearchInterface {
 public:
  PeriodicFailureInterface(hidden::KeywordSearchInterface* inner,
                           size_t period, Status failure)
      : inner_(inner), period_(period), failure_(std::move(failure)) {}

  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    ++calls_;
    if (period_ > 0 && calls_ % period_ == 0) {
      ++failures_;
      return failure_;
    }
    return inner_->Search(keywords);
  }

  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }
  size_t failures() const { return failures_; }

 private:
  hidden::KeywordSearchInterface* inner_;
  size_t period_;
  Status failure_;
  size_t calls_ = 0;
  size_t failures_ = 0;
};

/// Rejects every call. Models a dead endpoint with no retry layer.
class DeadInterface : public hidden::KeywordSearchInterface {
 public:
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& /*keywords*/) override {
    ++calls_;
    return Status::Unavailable("endpoint is down");
  }
  size_t top_k() const override { return 20; }
  size_t num_queries_issued() const override { return 0; }
  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

datagen::Scenario SmallScenario(uint64_t seed) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 2000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 800;
  cfg.local_size = 150;
  cfg.top_k = 20;
  cfg.error_rate = 0.2;
  cfg.seed = seed;
  auto s = datagen::BuildDblpScenario(cfg);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(NetCrawlResilienceTest, SmartCrawlerSkipsUnavailableQueriesAndContinues) {
  auto s = SmallScenario(51);
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kSimple;
  opt.local_text_fields = s.local_text_fields;
  auto crawler = core::SmartCrawler::Create(&s.local, std::move(opt));
  ASSERT_TRUE(crawler.ok()) << crawler.status();

  PeriodicFailureInterface flaky(s.hidden.get(), 3,
                                 Status::Unavailable("transient"));
  const size_t budget = 30;
  auto r = crawler.value()->Crawl(&flaky, budget);
  ASSERT_TRUE(r.ok()) << r.status();  // the crawl itself never aborts

  const core::CrawlResult& result = r.value();
  EXPECT_GT(result.stats.queries_unavailable, 0u);
  EXPECT_EQ(result.stats.queries_unavailable, flaky.failures());
  // The crawl kept going after every failure: it still spent its full
  // budget on successful queries (the pool is far larger than 30 + skips).
  EXPECT_EQ(result.queries_issued, budget);
  EXPECT_EQ(result.iterations.size(), budget);
  EXPECT_GT(result.covered_local_ids.size(), 0u);
}

TEST(NetCrawlResilienceTest, SmartCrawlerDrainsPoolAgainstDeadEndpoint) {
  auto s = SmallScenario(52);
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kSimple;
  opt.local_text_fields = s.local_text_fields;
  auto crawler = core::SmartCrawler::Create(&s.local, std::move(opt));
  ASSERT_TRUE(crawler.ok()) << crawler.status();

  // Every query fails. Each failed query is retired (not re-queued), so
  // the crawl terminates by draining the pool instead of spinning forever.
  DeadInterface dead;
  auto r = crawler.value()->Crawl(&dead, 10);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().queries_issued, 0u);
  EXPECT_EQ(r.value().stats.queries_unavailable, r.value().stats.pool_size);
  EXPECT_TRUE(r.value().stopped_early);
}

TEST(NetCrawlResilienceTest, OnlineSampleCrawlSurvivesUnavailability) {
  auto s = SmallScenario(53);
  core::OnlineCrawlOptions opt;
  opt.smart.policy = core::SelectionPolicy::kEstBiased;
  opt.smart.local_text_fields = s.local_text_fields;
  opt.target_sample_size = 50;
  opt.seed = 7;

  PeriodicFailureInterface flaky(s.hidden.get(), 4,
                                 Status::Unavailable("transient"));
  auto r = core::OnlineSampleCrawl(s.local, &flaky, 60, opt);
  ASSERT_TRUE(r.ok()) << r.status();  // neither phase aborts
  EXPECT_GT(r.value().queries_issued, 0u);
  EXPECT_GT(flaky.failures(), 0u);
  // Crawl-phase skips are surfaced in the combined stats.
  EXPECT_GT(r.value().stats.queries_unavailable, 0u);
}

TEST(NetCrawlResilienceTest, KeywordSampleTerminatesOnDeadEndpoint) {
  // Before the unavailable-attempt guard, a permanently-down interface
  // made the sampler loop forever: failed walks consumed no queries, and
  // only issued queries counted toward max_queries.
  DeadInterface dead;
  sample::KeywordSamplerOptions opt;
  opt.target_sample_size = 10;
  opt.max_queries = 25;
  opt.seed = 3;
  auto r = sample::KeywordSample(&dead, {"alpha", "beta", "gamma"}, opt);
  EXPECT_FALSE(r.ok());  // nothing sampled — but it returns
  EXPECT_LE(dead.calls(), 2 * opt.max_queries + 2);
}

}  // namespace
}  // namespace smartcrawl::net
