#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "index/csr.h"
#include "index/inverted_index.h"
#include "index/set_kernels.h"
#include "text/dictionary.h"
#include "text/document.h"

namespace smartcrawl::util {
class ThreadPool;
}  // namespace smartcrawl::util

/// \file query_pool.h
/// Query-pool generation (paper Sec. 3.1).
///
/// The pool is the union of
///  * Q_naive — one specific query per local record (all its keywords), so
///    every record has at least one query that can reach it, and
///  * mined queries — keyword itemsets with |q(D)| >= t found by frequent
///    pattern mining, which can cover multiple records at once,
/// followed by dominance pruning: q2 is dropped when some q1 with the same
/// q(D) contains all of q2's keywords (the extra keywords narrow q(H) for
/// free — e.g. "Noodle" is dominated by "Noodle House").

namespace smartcrawl::core {

using QueryIdx = uint32_t;

/// A keyword query over the crawler's dictionary.
struct Query {
  /// Sorted unique term ids (crawler-side dictionary).
  std::vector<text::TermId> terms;
  /// The keyword strings to send through the search interface.
  std::vector<std::string> keywords;
  /// True if this query came from Q_naive (vs pattern mining).
  bool is_naive = false;

  [[nodiscard]] std::string Display() const;
};

struct QueryPoolOptions {
  /// Minimum support t for mined queries (paper default t = 2).
  uint32_t min_support = 2;
  /// Cap on mined-itemset cardinality (see fpm::MiningOptions).
  size_t max_itemset_size = 4;
  /// Hard cap on mined itemsets enumerated (0 = unlimited).
  size_t max_mined_itemsets = 2'000'000;
  /// Apply dominance pruning.
  bool dominance_prune = true;
  /// Worker threads for transaction building, posting-list construction
  /// and dominance pruning: 0 = hardware concurrency, 1 = sequential.
  /// The generated pool is bit-identical for any thread count.
  unsigned num_threads = 1;
};

struct QueryPool {
  std::vector<Query> queries;
  /// Initial |q(D)| per query, aligned with `queries`.
  std::vector<uint32_t> local_frequency;
  /// Initial q(D) posting lists (sorted local record indices), one flat
  /// CSR block aligned with `queries` — `local_postings[q]` is a span.
  index::Csr<index::DocIndex> local_postings;
  /// True if itemset mining hit the max_mined_itemsets cap.
  bool mining_truncated = false;
  /// Kernel mix of the |q(D)| posting-list construction (surfaced through
  /// CrawlStats so the adaptive-kernel behavior is observable end to end).
  index::KernelStats kernel_stats;

  [[nodiscard]] size_t size() const { return queries.size(); }
};

/// Generates the pool from the local documents.
/// `local_docs[i]` must be the document of local record i over `dict`.
[[nodiscard]] QueryPool GenerateQueryPool(
    const std::vector<text::Document>& local_docs,
    const text::TermDictionary& dict, const QueryPoolOptions& options);

/// Same, but runs every parallel stage — transaction building, itemset
/// mining, posting-list construction, dominance pruning — on `pool` (must
/// be non-null) instead of spawning its own workers; `options.num_threads`
/// is ignored. Used by the crawler so the whole build phase shares one
/// pool. Output is identical to the owning-pool overload.
[[nodiscard]] QueryPool GenerateQueryPool(
    const std::vector<text::Document>& local_docs,
    const text::TermDictionary& dict, const QueryPoolOptions& options,
    util::ThreadPool* pool);

}  // namespace smartcrawl::core
