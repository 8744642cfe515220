#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/crawl_plan.h"
#include "core/crawl_result.h"
#include "hidden/search_interface.h"
#include "index/lazy_priority_queue.h"
#include "net/transport_stack.h"
#include "util/result.h"

/// \file crawl_session.h
/// The mutable per-crawl half of the SMARTCRAWL engine.
///
/// A session owns everything one crawl mutates — current frequencies,
/// fuzzy-intersection counts, the removed/covered bitmaps, the lazy
/// priority queue, the crawled-record dedup and the remaining budget —
/// and reads everything else from a shared const core::CrawlPlan.
/// Construction is O(plan size) copies with ZERO re-matching: the
/// expensive build (pool mining, CSR indexes, sample matching) happened
/// once in CrawlPlan::Build, so a service can stamp out thousands of
/// sessions per plan (see core::CrawlService and bench/bench_service.cpp).
///
/// Returned pages are tokenized against the plan's frozen dictionary
/// (CrawlPlan::FrozenPageDocuments), so a session owns no dictionary and
/// a page's match is a pure function of (plan, query, page). A service
/// passes every session one core::PageMatchMemo, so each distinct page is
/// tokenized and matched once per run and each session only filters the
/// shared result through its own removed bitmap; a standalone session
/// matches every page itself. Both paths produce identical results.
///
/// Two ways to drive a session:
///  * Crawl(iface, budget) — the classic blocking loop, resumable across
///    calls exactly like the old SmartCrawler::Crawl.
///  * the step API — Begin / IssueNext / ProcessPendingPage / TakeResult —
///    which splits each iteration into its transport half (IssueNext,
///    touches the interface, must stay on the driving thread) and its
///    compute half (ProcessPendingPage, touches only session-local state
///    plus the const plan, safe on a worker thread). Crawl() is
///    implemented on top of the step API, so both paths execute the same
///    code and produce bit-identical results.
///
/// Priority-queue repair after each removal fan-out is the paper's
/// on-demand scheme (Sec. 6.3 / Algorithm 4): every dirtied query is
/// marked through LazyPriorityQueue::MarkDirty and recomputed only when
/// it reaches the top of the queue.

namespace smartcrawl::core {

class PageMatchMemo;

class CrawlSession {
 public:
  /// Seeds a fresh session from `plan` (which must outlive the session).
  /// Copies the initial frequencies/intersections/cover counts. Pages are
  /// matched through `page_memo` when given (shared by concurrent
  /// sessions; must outlive the session), else directly on the plan.
  explicit CrawlSession(const CrawlPlan& plan,
                        PageMatchMemo* page_memo = nullptr);

  /// The priority-queue recompute hook captures `this`; neither copies nor
  /// moves are safe.
  CrawlSession(const CrawlSession&) = delete;
  CrawlSession& operator=(const CrawlSession&) = delete;

  /// Runs the crawl: iteratively selects and issues up to `budget` queries
  /// through `iface`. Crawls are RESUMABLE: calling Crawl again continues
  /// from the retained selection state (covered records stay covered,
  /// issued queries stay retired), which is how a budget larger than a
  /// daily quota is spent across days (see hidden/daily_quota.h). All
  /// calls must use interfaces with the same top-k; each call returns the
  /// logs of its own session only.
  Result<CrawlResult> Crawl(hidden::KeywordSearchInterface* iface,
                            size_t budget);

  /// Convenience overload: crawls through the attached transport stack
  /// (see AttachTransport).
  Result<CrawlResult> Crawl(size_t budget);

  // ----- step API -------------------------------------------------------

  /// Starts (or resumes) one crawl call of up to `budget` queries against
  /// interfaces reporting `top_k`. The first call fixes k and seeds the
  /// priority queue; later calls with a different top-k are rejected.
  Status Begin(size_t top_k, size_t budget);

  /// Selects queries and issues them through `iface` until one returns a
  /// page (true — process it with ProcessPendingPage before the next
  /// IssueNext) or the crawl call is over (false — budget spent, pool
  /// empty, benefit zero, or the interface ran out of quota). Touches the
  /// interface, so concurrent sessions must serialize their IssueNext
  /// calls (see CrawlService).
  Result<bool> IssueNext(hidden::KeywordSearchInterface* iface);

  /// Convenience overload: issues through the attached transport stack.
  Result<bool> IssueNext();

  /// The compute half of one iteration: logs the pending page, matches it,
  /// applies the policy's removal rule and marks the dirtied queries for
  /// repair on pop.
  /// Touches only session-local state plus the const plan and the
  /// internally locked page memo, so concurrent sessions may run this on
  /// worker threads.
  void ProcessPendingPage();

  /// Finishes the crawl call begun by Begin and returns its result.
  CrawlResult TakeResult();

  /// True between a successful IssueNext and its ProcessPendingPage.
  bool has_pending_page() const { return pending_; }

  /// True once IssueNext declared the current crawl call over.
  bool finished() const { return finished_; }

  // ----- owned transport ------------------------------------------------

  /// Builds and owns a net::TransportStack over `origin` (which must
  /// outlive the session); the iface-less Crawl/IssueNext overloads drive
  /// it. A service points every tenant's origin at one shared cache.
  void AttachTransport(hidden::KeywordSearchInterface* origin,
                       const net::TransportOptions& options);

  /// The attached stack (null until AttachTransport).
  net::TransportStack* transport() { return transport_.get(); }
  const net::TransportStack* transport() const { return transport_.get(); }

  // ----- introspection --------------------------------------------------

  /// Local records the session still considers part of D.
  size_t NumActive() const { return num_active_; }

  /// Estimated benefit the engine would currently assign to pool query
  /// `q` (exposed for tests and the estimator examples).
  double PriorityOf(QueryIdx q) const;

  const CrawlPlan& plan() const { return *plan_; }

 private:
  /// Removes records from D, updating frequencies / intersections / cover
  /// counts and dirtying affected queries in `dirtied`.
  void RemoveRecords(const std::vector<table::RecordId>& ids,
                     std::vector<QueryIdx>* dirtied);

  const CrawlPlan* plan_;
  PageMatchMemo* page_memo_;  // not owned; null = match on the plan

  // Maintained per-query statistics (seeded from the plan).
  std::vector<uint32_t> freq_d_;       // current |q(D)|
  std::vector<uint32_t> inter_;        // current |q(D) ∩~ q(Hs)|
  std::vector<uint32_t> cover_count_;  // current true covers (kIdeal)
  EstimatorContext ctx_;

  // Coverage state.
  std::vector<uint8_t> removed_;  // no longer in D
  std::vector<uint8_t> covered_;  // believed covered (reporting)
  size_t num_active_ = 0;

  /// Lifetime total of delta decrements applied (calls report deltas).
  uint64_t delta_decrements_total_ = 0;

  /// Selection state shared across Crawl() calls (resumability).
  std::unique_ptr<index::LazyPriorityQueue> pq_;
  /// Scratch for ProcessPendingPage's dirty frontier, reused across pages
  /// so steady-state page processing allocates nothing per round.
  std::vector<QueryIdx> dirty_frontier_;
  /// Crawled-record dedup across calls (keep_crawled_records).
  std::unordered_map<uint64_t, size_t> crawled_keys_;
  std::vector<table::Record> crawled_records_;

  std::unique_ptr<net::TransportStack> transport_;

  // State of the crawl call currently between Begin and TakeResult.
  CrawlResult result_;
  size_t budget_left_ = 0;
  uint64_t decrements_at_start_ = 0;
  bool finished_ = true;

  // The page issued by IssueNext, awaiting ProcessPendingPage.
  bool pending_ = false;
  QueryIdx pending_query_ = 0;
  double pending_priority_ = 0.0;
  std::vector<table::Record> pending_page_;
};

}  // namespace smartcrawl::core
