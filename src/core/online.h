#pragma once

#include <cstdint>

#include "core/crawl_result.h"
#include "core/smart_crawler.h"
#include "hidden/search_interface.h"
#include "table/table.h"
#include "util/result.h"

/// \file online.h
/// Online sampling: build the hidden-database sample at crawl time.
///
/// QSEL-EST assumes a sample Hs built offline — reasonable when many users
/// share one hidden database, but a cold start otherwise. The paper's
/// future-work list opens with exactly this: "study how to create a sample
/// in runtime such that the upfront cost can be amortized over time"
/// (Sec. 9). This module implements the straightforward realization:
/// spend 15% of the query budget driving the keyword sampler through the
/// SAME metered interface, then crawl with the estimators fed by the fresh
/// sample. Nothing is wasted: pages fetched during sampling are part of the
/// crawl result, so records they happen to cover count, and with
/// keep_crawled_records their records join crawled_records.

namespace smartcrawl::core {

struct OnlineCrawlOptions {
  /// Crawl configuration (policy should be one of the kEst* variants;
  /// others don't use a sample and gain nothing from this wrapper).
  SmartCrawlOptions smart;
  /// Stop sampling early once this many distinct records were drawn
  /// (0 = only the sampling share of the budget limits it).
  size_t target_sample_size = 500;
  uint64_t seed = 0;
};

/// Runs sample-then-crawl against `iface` within `budget` total queries.
/// The returned CrawlResult contains the sampling queries first (their
/// pages included), then the crawl's. With smart.keep_crawled_records,
/// crawled_records holds every distinct record of both phases once.
Result<CrawlResult> OnlineSampleCrawl(const table::Table& local,
                                      hidden::KeywordSearchInterface* iface,
                                      size_t budget,
                                      const OnlineCrawlOptions& options);

}  // namespace smartcrawl::core
