#include "core/baseline_crawlers.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/random.h"

namespace smartcrawl::core {

void LogPage(CrawlResult* result, std::string query,
             const std::vector<table::Record>& page, bool keep_records,
             std::unordered_set<uint64_t>* crawled_keys) {
  IterationLog log;
  log.query = std::move(query);
  log.page_size = static_cast<uint32_t>(page.size());
  log.page_entities.reserve(page.size());
  for (const auto& rec : page) log.page_entities.push_back(rec.entity_id);
  result->iterations.push_back(std::move(log));
  if (keep_records) {
    for (const auto& rec : page) {
      if (crawled_keys->insert(table::DedupKey(rec)).second) {
        result->crawled_records.push_back(rec);
      }
    }
  }
}

Result<CrawlResult> NaiveCrawl(const table::Table& local,
                               hidden::KeywordSearchInterface* iface,
                               size_t budget,
                               const NaiveCrawlOptions& options) {
  CrawlResult result;
  std::unordered_set<uint64_t> crawled_keys;

  std::vector<size_t> order(local.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(options.seed);
  Shuffle(order, rng);

  size_t budget_left = budget;
  for (size_t rec_idx : order) {
    if (budget_left == 0) break;
    auto id = static_cast<table::RecordId>(rec_idx);
    std::string query_text;
    if (options.query_fields.empty()) {
      query_text = local.ConcatenatedText(id);
    } else {
      auto text_or = local.ConcatenatedText(id, options.query_fields);
      if (!text_or.ok()) return text_or.status();
      query_text = std::move(text_or).value();
    }
    auto page_or = iface->SearchPage({query_text});
    if (!page_or.ok()) {
      if (page_or.status().IsBudgetExhausted()) break;
      if (page_or.status().IsUnavailable()) {
        ++result.stats.queries_unavailable;  // transport failure: skip
      } else {
        ++result.stats.queries_rejected;  // e.g. empty after stop words
      }
      continue;
    }
    --budget_left;
    ++result.queries_issued;
    LogPage(&result, std::move(query_text), (*page_or)->records(),
            options.keep_crawled_records, &crawled_keys);
  }
  result.stopped_early = budget_left > 0;
  return result;
}

Result<CrawlResult> FullCrawl(const sample::HiddenSample& sample,
                              hidden::KeywordSearchInterface* iface,
                              size_t budget,
                              const FullCrawlOptions& options) {
  CrawlResult result;
  std::unordered_set<uint64_t> crawled_keys;

  // Keyword frequencies within the sample.
  std::unordered_map<std::string, uint32_t> freq;
  for (const auto& rec : sample.records.records()) {
    std::string textv = sample.records.ConcatenatedText(rec.id);
    std::vector<std::string> tokens = text::Tokenize(textv);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (auto& t : tokens) ++freq[t];
  }
  std::vector<std::pair<std::string, uint32_t>> ordered(freq.begin(),
                                                        freq.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  size_t budget_left = budget;
  for (const auto& [keyword, f] : ordered) {
    if (budget_left == 0) break;
    auto page_or = iface->SearchPage({keyword});
    if (!page_or.ok()) {
      if (page_or.status().IsBudgetExhausted()) break;
      if (page_or.status().IsUnavailable()) {
        ++result.stats.queries_unavailable;
      } else {
        ++result.stats.queries_rejected;
      }
      continue;
    }
    --budget_left;
    ++result.queries_issued;
    IterationLog& log = (LogPage(&result, keyword, (*page_or)->records(),
                                 options.keep_crawled_records, &crawled_keys),
                         result.iterations.back());
    log.estimated_benefit = static_cast<double>(f);
  }
  result.stopped_early = budget_left > 0;
  return result;
}

}  // namespace smartcrawl::core
