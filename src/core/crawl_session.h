#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
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
/// matched once per run, each distinct record tokenized once per run, and
/// each session only filters the shared result through its own removed
/// bitmap; a standalone session matches every page itself. Both paths
/// produce identical results.
///
/// Two ways to drive a session:
///  * Crawl(iface, budget) — the classic blocking loop, resumable across
///    calls exactly like the old SmartCrawler::Crawl.
///  * the step API — Begin / Select / IssueNext / ProcessPendingPage /
///    TakeResult — which splits each iteration into its transport half
///    (IssueNext, touches the interface, must stay on the driving thread)
///    and its compute half (ProcessPendingPage and Select, touch only
///    session-local state plus the const plan, safe on a worker thread).
///    Crawl() is implemented on top of the step API, so both paths execute
///    the same code and produce bit-identical results.
///
/// Selection is one routine, Select: the budget and liveness checks, the
/// priority-queue pop with its repairs, and the zero-benefit stop. It
/// parks its outcome (a query and its priority, or the end of the call) in
/// the session, and the next IssueNext consumes it and only fetches.
/// Nothing between the end of ProcessPendingPage and the next IssueNext
/// changes what Select reads, so selecting early changes no result: a
/// service selects on its workers right after each page (see
/// CrawlService). IssueNext calls Select itself when nothing is parked,
/// and again after an unavailable or rejected query.
///
/// Priority-queue repair after each removal fan-out is the paper's
/// on-demand scheme (Sec. 6.3 / Algorithm 4): every dirtied query is
/// marked through LazyPriorityQueue::MarkDirty and recomputed only when
/// it reaches the top of the queue. The queue starts from an InitialOrder,
/// the pool sorted by initial priority, which depends only on (plan,
/// top-k): a service builds it once per (plan, top-k) and shares it with
/// every session that starts from it; a standalone session builds its own.

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

  /// The pool queries of `plan` sorted by the priority a fresh session
  /// crawling against top-k `top_k` gives them: the order its queue starts
  /// from. Immutable; any number of sessions may share one.
  struct InitialOrder {
    const CrawlPlan* plan = nullptr;
    size_t top_k = 0;
    index::LazyPriorityQueue::Order entries;
  };

  /// Builds the InitialOrder of (`plan`, `top_k`).
  static InitialOrder BuildInitialOrder(const CrawlPlan& plan, size_t top_k);

  /// Starts (or resumes) one crawl call of up to `budget` queries against
  /// interfaces reporting `top_k`. The first call fixes k and seeds the
  /// priority queue from `order` (built for this plan and `top_k`, else
  /// rejected), or from its own BuildInitialOrder when null; later calls
  /// ignore `order` and reject a different top-k.
  Status Begin(size_t top_k, size_t budget,
               const InitialOrder* order = nullptr);

  /// Selects the next query of the current call and parks it (or the end
  /// of the call) for the next IssueNext. A no-op when a selection is
  /// already parked or the call is over. Touches only session state, so a
  /// worker may run it right after ProcessPendingPage. A parked query that
  /// no IssueNext consumes goes back to the queue on TakeResult or Begin
  /// (the repairs its pop made stay counted in pq_recomputes).
  void Select();

  /// Issues the parked query through `iface` (selecting first when nothing
  /// is parked, and selecting again inline after an unavailable or
  /// rejected query) until one returns a page (true — process it with
  /// ProcessPendingPage before the next IssueNext) or the crawl call is
  /// over (false — budget spent, pool empty, benefit zero, or the
  /// interface ran out of quota; a query refused for quota goes back to
  /// the queue). Touches the interface, so concurrent sessions must
  /// serialize their IssueNext calls (see CrawlService).
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
  /// counts and adding the affected queries to the frontier `dirtied`.
  void RemoveRecords(const std::vector<table::RecordId>& ids,
                     std::vector<QueryIdx>* dirtied);

  /// Appends `q` to the frontier `dirtied` unless this page already did.
  void AddToFrontier(QueryIdx q, std::vector<QueryIdx>* dirtied);

  /// Returns a parked, unconsumed query to the queue and clears the slot.
  void Unpark();

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
  /// Per pool query: 1 while it is in dirty_frontier_, so the frontier is
  /// distinct by construction. All zero between pages.
  std::vector<uint8_t> in_frontier_;
  /// Keys of the records already crawled, so a resumed call reports only
  /// records first crawled in it (keep_crawled_records).
  std::unordered_set<uint64_t> crawled_keys_;

  std::unique_ptr<net::TransportStack> transport_;

  // State of the crawl call currently between Begin and TakeResult.
  CrawlResult result_;
  size_t budget_left_ = 0;
  uint64_t decrements_at_start_ = 0;
  bool finished_ = true;

  /// What Select parked for the next IssueNext.
  enum class Parked : uint8_t {
    kNothing,    // IssueNext selects inline
    kQuery,      // issue parked_query_
    kStop,       // the call is over: budget spent
    kStopEarly,  // the call is over early: D covered, pool dry, benefit 0
  };
  Parked parked_ = Parked::kNothing;
  /// True while parked_query_/parked_priority_ hold an entry popped off
  /// pq_ and not yet consumed (kQuery, or the zero-benefit kStopEarly).
  bool parked_popped_ = false;
  QueryIdx parked_query_ = 0;
  double parked_priority_ = 0.0;

  // The page issued by IssueNext, awaiting ProcessPendingPage.
  bool pending_ = false;
  QueryIdx pending_query_ = 0;
  double pending_priority_ = 0.0;
  /// Shared with the cache and the other sessions that issued the same
  /// query; dropped (not freed, unless this was the last holder) once
  /// processed.
  hidden::PageRef pending_page_;
};

}  // namespace smartcrawl::core
