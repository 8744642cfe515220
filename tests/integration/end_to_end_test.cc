#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/baseline_crawlers.h"
#include "core/enrich.h"
#include "core/metrics.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"

/// Full-pipeline integration tests: scenario -> (query-derived) sample ->
/// crawl -> enrichment, including the Yelp-style non-conjunctive setup of
/// paper Sec. 7.3.

namespace smartcrawl {
namespace {

TEST(EndToEndTest, DblpEnrichmentPipeline) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 5000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2000;
  cfg.local_size = 250;
  cfg.top_k = 50;
  cfg.seed = 3;
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());

  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 9);

  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  opt.keep_crawled_records = true;
  auto crawler = core::SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler.ok()) << crawler.status();
  hidden::BudgetedInterface iface(s->hidden.get(), 60);
  auto crawl = crawler.value()->Crawl(&iface, 60);
  ASSERT_TRUE(crawl.ok());
  size_t coverage = core::FinalCoverage(s->local, *crawl);
  EXPECT_GT(coverage, 100u);

  // Enrich the local table with the hidden "year" attribute (index 3).
  core::EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kEntityOracle;
  spec.import_fields = {{3, "year_from_hidden"}};
  auto enriched = core::EnrichTable(s->local, crawl->crawled_records, spec);
  ASSERT_TRUE(enriched.ok());
  EXPECT_EQ(enriched->records_enriched, coverage);
  EXPECT_EQ(enriched->enriched.schema().field_names.back(),
            "year_from_hidden");
  // Imported years must equal the hidden twins' years.
  size_t checked = 0;
  for (const auto& rec : enriched->enriched.records()) {
    if (rec.fields.back().empty()) continue;
    const auto& local_rec = s->local.record(rec.id);
    EXPECT_EQ(rec.fields[3], local_rec.fields[3]);  // same entity copy
    ++checked;
  }
  EXPECT_EQ(checked, coverage);
}

TEST(EndToEndTest, YelpStylePipelineWithQueryDerivedSample) {
  datagen::YelpScenarioConfig cfg;
  cfg.corpus.corpus_size = 6000;
  cfg.local_size = 400;
  cfg.error_rate = 0.15;
  cfg.seed = 8;
  auto s = datagen::BuildYelpScenario(cfg);
  ASSERT_TRUE(s.ok());

  // Build the sample through the keyword interface, as in Sec. 7.1.2.
  std::vector<std::string> pool;
  {
    std::unordered_set<std::string> kw;
    for (const auto& rec : s->local.records()) {
      for (size_t f = 0; f < rec.fields.size(); ++f) {
        for (auto& w : text::Tokenize(rec.fields[f])) kw.insert(w);
      }
    }
    pool.assign(kw.begin(), kw.end());
    std::sort(pool.begin(), pool.end());
  }
  sample::KeywordSamplerOptions sopt;
  sopt.target_sample_size = 60;
  sopt.seed = 21;
  auto sample_or = sample::KeywordSample(s->hidden.get(), pool, sopt);
  ASSERT_TRUE(sample_or.ok()) << sample_or.status();

  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  auto crawler =
      core::SmartCrawler::Create(&s->local, std::move(opt), &sample_or.value());
  ASSERT_TRUE(crawler.ok()) << crawler.status();
  s->hidden->ResetQueryCounter();
  hidden::BudgetedInterface iface(s->hidden.get(), 150);
  auto crawl = crawler.value()->Crawl(&iface, 150);
  ASSERT_TRUE(crawl.ok());

  size_t coverage = core::FinalCoverage(s->local, *crawl);
  double recall = core::RelativeCoverage(coverage, s->num_matchable);
  // Non-conjunctive interface + dirty names: still substantial recall.
  EXPECT_GT(recall, 0.3);
}

TEST(EndToEndTest, SmartOutperformsNaivePerQueryOnDirtyData) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 5000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2000;
  cfg.local_size = 300;
  cfg.top_k = 50;
  cfg.error_rate = 0.5;  // heavy errors
  cfg.seed = 12;
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 2);

  const size_t budget = 60;
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  auto crawler = core::SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler.ok()) << crawler.status();
  hidden::BudgetedInterface i1(s->hidden.get(), budget);
  auto smart = crawler.value()->Crawl(&i1, budget);
  ASSERT_TRUE(smart.ok());

  core::NaiveCrawlOptions nopt;
  nopt.query_fields = s->local_text_fields;
  hidden::BudgetedInterface i2(s->hidden.get(), budget);
  auto naive = core::NaiveCrawl(s->local, &i2, budget, nopt);
  ASSERT_TRUE(naive.ok());

  // Half the titles are corrupted: Naive's full-record queries fail on
  // them; SmartCrawl's shared (shorter) queries are far more robust.
  EXPECT_GT(core::FinalCoverage(s->local, *smart),
            core::FinalCoverage(s->local, *naive));
}

}  // namespace
}  // namespace smartcrawl
