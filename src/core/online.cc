#include "core/online.h"

#include <algorithm>
#include <unordered_set>

#include "core/baseline_crawlers.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"
#include "util/string_util.h"
#include "util/result.h"

namespace smartcrawl::core {

namespace {

/// Share of the total budget the sampling phase may spend.
constexpr double kSampleBudgetFraction = 0.15;

}  // namespace

Result<CrawlResult> OnlineSampleCrawl(const table::Table& local,
                                      hidden::KeywordSearchInterface* iface,
                                      size_t budget,
                                      const OnlineCrawlOptions& options) {
  if (options.smart.policy != SelectionPolicy::kEstBiased &&
      options.smart.policy != SelectionPolicy::kEstUnbiased) {
    return Status::InvalidArgument(
        "online sampling only helps the estimator policies");
  }

  // Phase 1: sample through the metered interface.
  size_t sample_budget = static_cast<size_t>(
      static_cast<double>(budget) * kSampleBudgetFraction);
  if (sample_budget == 0) sample_budget = 1;

  std::vector<std::string> pool;
  {
    std::unordered_set<std::string> kw;
    for (const auto& rec : local.records()) {
      std::string textv;
      if (options.smart.local_text_fields.empty()) {
        textv = local.ConcatenatedText(rec.id);
      } else {
        auto t = local.ConcatenatedText(rec.id,
                                        options.smart.local_text_fields);
        if (!t.ok()) return t.status();
        textv = std::move(t).value();
      }
      for (auto& w : text::Tokenize(textv)) kw.insert(std::move(w));
    }
    pool.assign(kw.begin(), kw.end());
    std::sort(pool.begin(), pool.end());
  }

  CrawlResult combined;
  const bool keep_records = options.smart.keep_crawled_records;
  std::unordered_set<uint64_t> crawled_keys;
  sample::KeywordSamplerOptions sopt;
  sopt.target_sample_size =
      options.target_sample_size == 0 ? budget : options.target_sample_size;
  sopt.max_queries = sample_budget;
  sopt.seed = options.seed;
  sopt.page_observer = [&](const std::vector<std::string>& query,
                          const std::vector<table::Record>& page) {
    LogPage(&combined, Join(query, " "), page, keep_records, &crawled_keys);
    ++combined.queries_issued;
  };
  auto sample_or = sample::KeywordSample(iface, pool, sopt);

  // Phase 2: crawl with the remaining budget. If the sampling phase
  // accepted nothing (tiny budget, hostile interface), there is no θ to
  // estimate with — degrade gracefully to QSEL-SIMPLE instead of failing.
  size_t spent = combined.queries_issued;
  if (spent >= budget) return combined;
  SmartCrawlOptions smart = options.smart;
  const sample::HiddenSample* sample_ptr = nullptr;
  if (sample_or.ok()) {
    sample_ptr = &sample_or.value();
  } else if (sample_or.status().IsNotFound()) {
    smart.policy = SelectionPolicy::kSimple;
  } else {
    return sample_or.status();
  }
  SC_ASSIGN_OR_RETURN(auto crawler,
                      SmartCrawler::Create(&local, std::move(smart),
                                           sample_ptr));
  SC_ASSIGN_OR_RETURN(CrawlResult crawl,
                      crawler->Crawl(iface, budget - spent));

  combined.queries_issued += crawl.queries_issued;
  combined.stats = crawl.stats;
  combined.stopped_early = crawl.stopped_early;
  combined.covered_local_ids = std::move(crawl.covered_local_ids);
  for (table::Record& rec : crawl.crawled_records) {
    if (crawled_keys.insert(table::DedupKey(rec)).second) {
      combined.crawled_records.push_back(std::move(rec));
    }
  }
  for (auto& it : crawl.iterations) {
    combined.iterations.push_back(std::move(it));
  }
  return combined;
}

}  // namespace smartcrawl::core
