#include "core/baseline_crawlers.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "text/tokenizer.h"
#include "util/random.h"

namespace smartcrawl::core {

namespace {

void LogPage(CrawlResult* result, std::string query,
             const std::vector<table::Record>& page, bool keep_records,
             std::unordered_map<uint64_t, size_t>* crawled_keys) {
  IterationLog log;
  log.query = std::move(query);
  log.page_size = static_cast<uint32_t>(page.size());
  log.page_entities.reserve(page.size());
  for (const auto& rec : page) log.page_entities.push_back(rec.entity_id);
  result->iterations.push_back(std::move(log));
  if (keep_records) {
    for (const auto& rec : page) {
      uint64_t key = rec.entity_id != table::kUnknownEntity
                         ? rec.entity_id
                         : static_cast<uint64_t>(rec.id);
      if (crawled_keys->emplace(key, result->crawled_records.size()).second) {
        result->crawled_records.push_back(rec);
      }
    }
  }
}

}  // namespace

Result<CrawlResult> NaiveCrawl(const table::Table& local,
                               hidden::KeywordSearchInterface* iface,
                               size_t budget,
                               const NaiveCrawlOptions& options) {
  CrawlResult result;
  std::unordered_map<uint64_t, size_t> crawled_keys;

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
  if (options.keywords_per_query != 1) {
    return Status::InvalidArgument(
        "FullCrawl currently supports single-keyword queries only");
  }
  CrawlResult result;
  std::unordered_map<uint64_t, size_t> crawled_keys;

  // Keyword frequencies within the sample.
  std::unordered_map<std::string, uint32_t> freq;
  text::TokenizerOptions tok;
  for (const auto& rec : sample.records.records()) {
    std::string textv = sample.records.ConcatenatedText(rec.id);
    std::vector<std::string> tokens = text::Tokenize(textv, tok);
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

std::string BaselinePolicyName(BaselinePolicy policy) {
  switch (policy) {
    case BaselinePolicy::kNaive:
      return "naive";
    case BaselinePolicy::kFull:
      return "full";
    case BaselinePolicy::kOnlineSample:
      return "online-sample";
  }
  return "unknown";
}

Result<CrawlResult> RunBaseline(const BaselineRunSpec& spec,
                                hidden::KeywordSearchInterface* iface,
                                const table::Table* local,
                                const sample::HiddenSample* sample) {
  if (iface == nullptr) {
    return Status::InvalidArgument("RunBaseline requires a search interface");
  }
  std::unique_ptr<net::TransportStack> stack;
  if (spec.transport.has_value()) {
    stack = std::make_unique<net::TransportStack>(iface, *spec.transport);
    iface = stack->top();
  }
  switch (spec.policy) {
    case BaselinePolicy::kNaive:
      if (local == nullptr) {
        return Status::InvalidArgument(
            "baseline 'naive' requires a local table");
      }
      return NaiveCrawl(*local, iface, spec.budget, spec.naive);
    case BaselinePolicy::kFull:
      if (sample == nullptr) {
        return Status::InvalidArgument(
            "baseline 'full' requires a hidden-database sample");
      }
      return FullCrawl(*sample, iface, spec.budget, spec.full);
    case BaselinePolicy::kOnlineSample:
      if (local == nullptr) {
        return Status::InvalidArgument(
            "baseline 'online-sample' requires a local table");
      }
      return OnlineSampleCrawl(*local, iface, spec.budget, spec.online);
  }
  return Status::InvalidArgument("unknown baseline policy");
}

}  // namespace smartcrawl::core
