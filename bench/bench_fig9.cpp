/// Figure 9 — the real-hidden-database experiment (paper Sec. 7.3),
/// reproduced against the simulated Yelp: semi-conjunctive relevance-ranked
/// search (no strict conjunctive guarantee; junk keywords disqualify),
/// k = 50, dirty local names, and a hidden-database sample built through
/// the keyword interface itself (Zhang-et-al-style sampler, estimated θ).
///
/// Reports recall vs budget for SMARTCRAWL (biased estimators, Jaccard
/// coverage maintenance), NAIVECRAWL (name+city per record) and FULLCRAWL.
/// Expected shape: SmartCrawl reaches ~80% recall well before NaiveCrawl
/// finishes enumerating D; NaiveCrawl plateaus below SmartCrawl even with
/// b = |D| (data drift breaks its long queries); FullCrawl trails badly.

#include <algorithm>
#include <unordered_set>

#include "bench_common.h"
#include "core/baseline_crawlers.h"
#include "core/metrics.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"

using namespace smartcrawl;        // NOLINT
using namespace smartcrawl::benchx;  // NOLINT

int main() {
  std::printf("=== Figure 9: Yelp-style hidden database (SC_SCALE=%.2f) "
              "===\n",
              Scale());
  datagen::YelpScenarioConfig cfg;
  cfg.corpus.corpus_size = Scaled(36500);
  cfg.local_size = Scaled(3000);
  cfg.error_rate = 0.25;
  cfg.seed = 9;
  auto s_or = datagen::BuildYelpScenario(cfg);
  if (!s_or.ok()) {
    std::printf("scenario FAILED: %s\n", s_or.status().ToString().c_str());
    return 1;
  }
  datagen::Scenario s = std::move(s_or).value();
  const size_t budget = Scaled(3000);
  auto checkpoints = Checkpoints(budget, 10);

  // Offline sample via the keyword interface (0.2%-ish, like the paper's
  // 500-record sample built with 6483 queries).
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
  sopt.target_sample_size = std::max<size_t>(30, Scaled(500));
  sopt.seed = 31;
  auto hs_or = sample::KeywordSample(s.hidden.get(), pool, sopt);
  if (!hs_or.ok()) {
    std::printf("sampler FAILED: %s\n", hs_or.status().ToString().c_str());
    return 1;
  }
  std::printf("sample: %zu records via %zu queries; theta-hat=%.5f "
              "(|H|-hat=%.0f, true |H|=%zu)\n",
              hs_or->records.size(), hs_or->queries_spent, hs_or->theta,
              hs_or->estimated_hidden_size, s.hidden->OracleSize());
  s.hidden->ResetQueryCounter();

  struct ArmRun {
    std::string name;
    std::vector<size_t> coverage;
  };
  std::vector<ArmRun> runs;

  {  // SmartCrawl-B
    core::SmartCrawlOptions opt;
    opt.policy = core::SelectionPolicy::kEstBiased;
    opt.local_text_fields = s.local_text_fields;
    opt.er.mode = match::ErMode::kJaccard;
    opt.er.jaccard_threshold = 0.7;
    auto crawler_or =
        core::SmartCrawler::Create(&s.local, std::move(opt), &hs_or.value());
    if (!crawler_or.ok()) return 1;
    hidden::BudgetedInterface iface(s.hidden.get(), budget);
    auto r = crawler_or.value()->Crawl(&iface, budget);
    if (!r.ok()) return 1;
    runs.push_back(
        {"SmartCrawl", core::CoverageAtBudgets(s.local, *r, checkpoints)});
    s.hidden->ResetQueryCounter();
  }
  {  // NaiveCrawl
    core::NaiveCrawlOptions opt;
    opt.query_fields = s.local_text_fields;
    hidden::BudgetedInterface iface(s.hidden.get(), budget);
    auto r = core::NaiveCrawl(s.local, &iface, budget, opt);
    if (!r.ok()) return 1;
    runs.push_back(
        {"NaiveCrawl", core::CoverageAtBudgets(s.local, *r, checkpoints)});
    s.hidden->ResetQueryCounter();
  }
  {  // FullCrawl
    auto full_sample = sample::BernoulliSample(*s.hidden, 0.01, 17);
    hidden::BudgetedInterface iface(s.hidden.get(), budget);
    auto r = core::FullCrawl(full_sample, &iface, budget, {});
    if (!r.ok()) return 1;
    runs.push_back(
        {"FullCrawl", core::CoverageAtBudgets(s.local, *r, checkpoints)});
  }

  std::printf("\nFig 9: recall vs budget (|D|=%zu, matchable=%zu, k=%zu)\n",
              s.local.size(), s.num_matchable, s.hidden->top_k());
  PrintRule();
  std::printf("%10s", "budget");
  for (const auto& run : runs) std::printf("%14s", run.name.c_str());
  std::printf("\n");
  PrintRule();
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    std::printf("%10zu", checkpoints[i]);
    for (const auto& run : runs) {
      std::printf("%13.1f%%",
                  100.0 * core::RelativeCoverage(run.coverage[i],
                                                 s.num_matchable));
    }
    std::printf("\n");
  }
  PrintRule();
  return 0;
}
