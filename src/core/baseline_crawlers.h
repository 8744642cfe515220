#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/crawl_result.h"
#include "hidden/search_interface.h"
#include "sample/sampler.h"
#include "table/table.h"
#include "util/result.h"

/// \file baseline_crawlers.h
/// The two straightforward solutions the paper compares against
/// (Sec. 1 and Appendix C).
///
/// NAIVECRAWL enumerates local records and issues one very specific query
/// per record — the concatenation of the record's (text) attributes — in
/// random order. It is what OpenRefine's reconciliation service does.
///
/// FULLCRAWL tries to crawl as much of the hidden database as possible,
/// ignoring the local database: it extracts keywords from a hidden-database
/// sample and issues them in decreasing order of their sample frequency.

namespace smartcrawl::core {

/// Appends `page`, returned for `query`, to `result` as one IterationLog
/// (with no estimated benefit). With `keep_records`, also appends each
/// record whose table::DedupKey is not yet in `crawled_keys` to
/// result->crawled_records and adds the key. Shared by the crawlers that
/// issue their own queries (the baselines and OnlineSampleCrawl's sampling
/// phase).
void LogPage(CrawlResult* result, std::string query,
             const std::vector<table::Record>& page, bool keep_records,
             std::unordered_set<uint64_t>* crawled_keys);

struct NaiveCrawlOptions {
  /// Fields concatenated into each record's query (empty = all).
  std::vector<std::string> query_fields;
  /// Shuffle seed for the record order (paper issues in random order).
  uint64_t seed = 0;
  bool keep_crawled_records = false;
};

/// Runs NAIVECRAWL over `local` with `budget` queries.
Result<CrawlResult> NaiveCrawl(const table::Table& local,
                               hidden::KeywordSearchInterface* iface,
                               size_t budget,
                               const NaiveCrawlOptions& options = {});

struct FullCrawlOptions {
  bool keep_crawled_records = false;
};

/// Runs FULLCRAWL: issues the sample's single keywords (the paper's
/// frequency-ordered pool) in decreasing sample frequency until the budget
/// is exhausted or the pool runs dry.
Result<CrawlResult> FullCrawl(const sample::HiddenSample& sample,
                              hidden::KeywordSearchInterface* iface,
                              size_t budget,
                              const FullCrawlOptions& options = {});

}  // namespace smartcrawl::core
