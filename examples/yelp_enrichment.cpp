/// Yelp-style enrichment (paper Sec. 7.1.2/7.3): the hidden database is
/// NOT strictly conjunctive (semi-conjunctive candidates, relevance-ranked,
/// k = 50), the local names have drifted from the hidden ones (data
/// errors), and the sample is built through the keyword interface itself —
/// the most realistic, assumption-violating configuration in the paper.
///
/// Usage: yelp_enrichment [budget] [local_size]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "core/baseline_crawlers.h"
#include "core/enrich.h"
#include "core/metrics.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"

using namespace smartcrawl;  // NOLINT: example brevity

int main(int argc, char** argv) {
  size_t budget = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 600;
  size_t local_size = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3000;

  datagen::YelpScenarioConfig cfg;
  cfg.corpus.corpus_size = 36500;
  cfg.local_size = local_size;
  cfg.error_rate = 0.25;  // dataset-vs-live drift
  cfg.seed = 2;
  auto scenario_or = datagen::BuildYelpScenario(cfg);
  if (!scenario_or.ok()) {
    std::printf("scenario: %s\n", scenario_or.status().ToString().c_str());
    return 1;
  }
  datagen::Scenario s = std::move(scenario_or).value();
  std::printf("|D|=%zu |H|=%zu k=%zu (semi-conjunctive, relevance-ranked)\n",
              s.local.size(), s.hidden->OracleSize(), s.hidden->top_k());

  // Build the 'offline' sample through the keyword interface (paper: a
  // 0.2%% sample of 500 records cost 6483 queries; this cost is NOT part of
  // the crawl budget because the sample is reusable across users).
  std::vector<std::string> pool;
  {
    std::unordered_set<std::string> kw;
    for (const auto& rec : s.local.records()) {
      for (size_t f = 0; f < rec.fields.size(); ++f) {
        for (auto& w : text::Tokenize(rec.fields[f])) kw.insert(w);
      }
    }
    pool.assign(kw.begin(), kw.end());
    std::sort(pool.begin(), pool.end());
  }
  sample::KeywordSamplerOptions sopt;
  sopt.target_sample_size = 100;
  sopt.seed = 5;
  auto hs_or = sample::KeywordSample(s.hidden.get(), pool, sopt);
  if (!hs_or.ok()) {
    std::printf("sampler: %s\n", hs_or.status().ToString().c_str());
    return 1;
  }
  std::printf("keyword sampler: %zu records via %zu queries, "
              "theta-hat=%.5f, |H|-hat=%.0f (true %zu)\n",
              hs_or->records.size(), hs_or->queries_spent, hs_or->theta,
              hs_or->estimated_hidden_size, s.hidden->OracleSize());
  s.hidden->ResetQueryCounter();

  // --- SmartCrawl-B with similarity-join ER (Sec. 6.1). -------------------
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = s.local_text_fields;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.7;
  auto crawler_or =
      core::SmartCrawler::Create(&s.local, std::move(opt), &hs_or.value());
  if (!crawler_or.ok()) {
    std::printf("crawler: %s\n", crawler_or.status().ToString().c_str());
    return 1;
  }
  hidden::BudgetedInterface i1(s.hidden.get(), budget);
  auto smart = crawler_or.value()->Crawl(&i1, budget);
  if (!smart.ok()) return 1;
  size_t smart_cov = core::FinalCoverage(s.local, *smart);
  std::printf("SmartCrawl-B: recall %.1f%% (%zu/%zu) in %zu queries\n",
              100.0 * core::RelativeCoverage(smart_cov, s.num_matchable),
              smart_cov, s.num_matchable, smart->queries_issued);

  // --- NaiveCrawl (name + city per record, like OpenRefine). ---------------
  core::NaiveCrawlOptions nopt;
  nopt.query_fields = s.local_text_fields;
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface i2(s.hidden.get(), budget);
  auto naive = core::NaiveCrawl(s.local, &i2, budget, nopt);
  if (!naive.ok()) return 1;
  size_t naive_cov = core::FinalCoverage(s.local, *naive);
  std::printf("NaiveCrawl:   recall %.1f%% (%zu/%zu)\n",
              100.0 * core::RelativeCoverage(naive_cov, s.num_matchable),
              naive_cov, s.num_matchable);

  // --- FullCrawl. ----------------------------------------------------------
  auto full_sample = sample::BernoulliSample(*s.hidden, 0.01, 3);
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface i3(s.hidden.get(), budget);
  auto full = core::FullCrawl(full_sample, &i3, budget, {});
  if (!full.ok()) return 1;
  size_t full_cov = core::FinalCoverage(s.local, *full);
  std::printf("FullCrawl:    recall %.1f%% (%zu/%zu)\n",
              100.0 * core::RelativeCoverage(full_cov, s.num_matchable),
              full_cov, s.num_matchable);
  return 0;
}
