#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"

/// \file crawl_result.h
/// Output of a crawl run, shared by all crawlers.
///
/// Crawlers record, per issued query, the entities on the returned page.
/// Evaluation metrics (coverage / recall curves) are computed by the
/// harness from these logs against ground truth — deliberately decoupled
/// from the crawler's own (possibly imperfect) matcher state.

namespace smartcrawl::core {

struct IterationLog {
  /// The query as sent (keywords joined by spaces).
  std::string query;
  /// Number of records on the returned page.
  uint32_t page_size = 0;
  /// Ground-truth entity ids of the returned records (evaluation only).
  std::vector<table::EntityId> page_entities;
  /// The benefit the selector believed the query had when selecting it
  /// (0 for baselines without estimates).
  double estimated_benefit = 0.0;
};

/// Engine-internal counters mirroring the cost terms of the paper's
/// Appendix B complexity analysis; useful for performance debugging and
/// the Sec. 6.3 ablation. The set-kernel mix of plan construction is a
/// plan property, not a session one: read it from
/// `CrawlPlan::build_kernel_stats()`.
struct CrawlStats {
  /// Queries in the generated pool (|Q|).
  size_t pool_size = 0;
  /// Lazy-priority-queue repairs performed ("t" in the paper's analysis:
  /// how often a dirty top element had to be recomputed on pop). Repair
  /// is on demand only (LazyPriorityQueue::MarkDirty), so this counts
  /// exactly the recomputes selection needed; cumulative over a resumed
  /// session's calls.
  size_t pq_recomputes = 0;
  /// UNIQUE queries dirtied per crawl iteration, summed over iterations —
  /// the delta-update fan-out as the priority queue actually sees it
  /// (duplicates across a batch of removed records repair the same entry
  /// only once, so they are deduplicated before MarkDirty).
  size_t fanout_updates = 0;
  /// Total records fetched across all pages.
  size_t records_fetched = 0;
  /// Selected queries whose Search failed with a transport-level
  /// kUnavailable that survived the resilient client (retries exhausted).
  /// The crawl skips them and keeps going — graceful degradation instead
  /// of aborting a long crawl on a flaky endpoint.
  size_t queries_unavailable = 0;
  /// Selected queries the interface rejected as invalid (e.g. all
  /// stop-words after the engine's tokenization); dropped, not counted
  /// against budget.
  size_t queries_rejected = 0;
  /// |q(D) ∩~ q(Hs)| decrements applied by RemoveRecords THIS session via
  /// the precomputed delta adjacency — each one replaces a ContainsAll
  /// re-evaluation the pre-CSR implementation performed per
  /// (record × forward-query × sample-match).
  size_t delta_decrements = 0;
};

struct CrawlResult {
  std::vector<IterationLog> iterations;
  size_t queries_issued = 0;
  CrawlStats stats;
  /// True when the crawler stopped before exhausting the budget (pool dry,
  /// every remaining query had zero estimated benefit, or D fully covered).
  bool stopped_early = false;
  /// Local record ids the crawler itself believes are covered (via its
  /// entity-resolution matcher). CUMULATIVE across resumed sessions of the
  /// same SmartCrawler (coverage is crawler state, not session state).
  std::vector<table::RecordId> covered_local_ids;
  /// Hidden records first crawled in THIS session (deduplicated against
  /// earlier sessions too), kept only when keep_crawled_records was
  /// requested — used by the enrichment API.
  std::vector<table::Record> crawled_records;
};

}  // namespace smartcrawl::core
