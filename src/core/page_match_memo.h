#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/crawl_plan.h"
#include "hidden/page.h"
#include "table/table.h"
#include "text/document.h"
#include "text/token_set.h"
#include "util/thread_annotations.h"

/// \file page_match_memo.h
/// Shares the work of matching returned pages across the sessions of a
/// fleet, at two levels: the page match per (plan, query, page), and the
/// tokens per hidden record.
///
/// Matching a page against q(D) (Sec. 6.1) is a pure function of the plan,
/// the query and the page: page documents are built against the plan's
/// frozen dictionary (CrawlPlan::FrozenPageDocuments) and the Jaccard /
/// exact pair predicate reads no session state. A session's own state
/// enters only as its removed bitmap, which merely restricts the matched
/// set to active records. So the memo keeps, per (plan, query, page), the
/// matches over ALL of q(D) — CrawlPlan::MatchPage with an empty removed
/// bitmap — and every later lookup filters that set through the caller's
/// bitmap. Because a candidate's match does not depend on which other
/// candidates are active, memo ∩ active equals the join over the active
/// records alone, and Match() returns exactly what CrawlPlan::MatchPage
/// would (pinned by tests/core/page_match_test.cc).
///
/// Page keys are (plan identity, query index, hidden::Page::fingerprint()),
/// the content fingerprint the page computed once when it was built, so a
/// lookup hashes no fields; a hit is confirmed against the page's
/// (record id, entity id) sequence. Fault injection truncates and
/// duplicates pages per tenant, so such variants have different content
/// and get entries of their own.
///
/// A page miss still shares work one level down. Tokenizing a record
/// depends on neither the plan nor the query (every plan tokenizes with the
/// default TokenizerOptions), so the memo also caches each hidden record's
/// text::TokenSet, keyed on (record id, a hash of its fields). Truncated
/// and duplicated variants, and pages of other queries and plans that
/// return the same record, reuse it; a miss only probes the plan's
/// dictionary once per cached token (text::Document::FromTokensFrozen) and
/// runs CrawlPlan::MatchPreparedPage. Like the page fingerprint, the
/// 64-bit content hash is trusted: a record whose fields change under the
/// same id gets a new key.
///
/// Thread safety: Match() may be called concurrently. Both maps are guarded
/// by one mutex; misses tokenize and match outside the lock, and a lost
/// insertion race discards an identical value. Entries are never modified
/// after insertion and live until Clear(), which must not overlap any
/// Match().

namespace smartcrawl::core {

class PageMatchMemo {
 public:
  struct Stats {
    /// Page lookups answered from, and not found in, the page entries.
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
    /// Records of missed pages whose tokens came from the record cache,
    /// and records tokenized into a new cache entry. A record that a racing
    /// call cached first counts as a hit, so misses never exceed the
    /// distinct (record id, content) pairs seen.
    uint64_t record_token_hits = 0;
    uint64_t record_token_misses = 0;
  };

  PageMatchMemo() = default;
  PageMatchMemo(const PageMatchMemo&) = delete;
  PageMatchMemo& operator=(const PageMatchMemo&) = delete;

  /// Equals plan.MatchPage(q, page, removed): the sorted, unique local
  /// records matched by `page`, restricted to records not set in `removed`
  /// (an empty span means all of D). `plan` must outlive the entries.
  std::vector<table::RecordId> Match(const CrawlPlan& plan, QueryIdx q,
                                     const hidden::Page& page,
                                     std::span<const uint8_t> removed)
      SC_EXCLUDES(mu_);

  /// Equals plan.FrozenPageDocuments(records), built from the cached token
  /// set of each record (tokenizing and caching the records not yet seen).
  /// Match() calls it on a page miss.
  std::vector<text::Document> PageDocuments(
      const CrawlPlan& plan, const std::vector<table::Record>& records)
      SC_EXCLUDES(mu_);

  /// Counters since construction (Clear keeps all but `entries`).
  Stats stats() const SC_EXCLUDES(mu_);

  /// Drops every page entry and cached token set. No Match() may run
  /// concurrently.
  void Clear() SC_EXCLUDES(mu_);

 private:
  struct Key {
    const CrawlPlan* plan;
    QueryIdx query;
    uint64_t fingerprint;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    /// The page's (record id, entity id) sequence, confirming a hit.
    std::vector<std::pair<table::RecordId, table::EntityId>> ids;
    /// Matches over all of q(D), sorted and unique.
    std::vector<table::RecordId> matches;
  };

  struct RecordKey {
    table::RecordId id;
    uint64_t content;  // hash of the record's fields
    bool operator==(const RecordKey&) const = default;
  };
  struct RecordKeyHash {
    size_t operator()(const RecordKey& k) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_ SC_GUARDED_BY(mu_);
  /// Node-based, so a pointer to a token set stays valid until Clear().
  std::unordered_map<RecordKey, text::TokenSet, RecordKeyHash> record_tokens_
      SC_GUARDED_BY(mu_);
  uint64_t hits_ SC_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SC_GUARDED_BY(mu_) = 0;
  uint64_t record_token_hits_ SC_GUARDED_BY(mu_) = 0;
  uint64_t record_token_misses_ SC_GUARDED_BY(mu_) = 0;
};

}  // namespace smartcrawl::core
