#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/crawl_plan.h"
#include "core/crawl_result.h"
#include "core/crawl_session.h"
#include "core/page_match_memo.h"
#include "hidden/search_interface.h"
#include "net/caching_interface.h"
#include "net/transport_stack.h"
#include "util/result.h"
#include "util/thread_annotations.h"

/// \file crawl_service.h
/// Multi-tenant crawl driver: N CrawlSessions over shared CrawlPlans,
/// advanced in rounds behind one shared query cache.
///
/// The north-star deployment is one hidden database serving many
/// enrichment users. Two things make that affordable:
///
///  * plan sharing — tenants with the same local table reuse one
///    CrawlPlan, paying only the O(plan size) session copy; and
///  * answer sharing — every tenant's stack bottoms out in one shared
///    net::CachingInterface, so a query answered for tenant A is a cache
///    hit for tenant B. Under per-tenant hidden::DailyQuotaInterface
///    metering (which charges by the delta of queries the layers BELOW it
///    actually accepted) such hits are metered-free.
///
/// A third kind of sharing rides along: every session of a run matches its
/// pages through one core::PageMatchMemo, at two levels. A page that many
/// tenants of the same plan fetch is matched once per (plan, query, page)
/// per run, and each session only filters the memoized matches through its
/// own removed bitmap. A page miss tokenizes only the records the run has
/// not met before: each hidden record's tokens are cached once per run and
/// reused by every page, query and plan that returns it (results are
/// identical to memo-less sessions; see page_match_memo.h). The memo is
/// cleared when the run ends.
///
/// Each round has an issue half (Phase A: every live session issues its
/// parked query, at most one accepted query per session, in session-index
/// order, all transport and shared-cache mutation serialized on the
/// calling thread) and a compute half (Phase B: the fetched pages are
/// matched and their records removed on the worker pool, marking the
/// dirtied queries, and each session then selects its next query with
/// CrawlSession::Select, so the queue pop and the repair of every dirtied
/// query that reaches the top run on the workers too; each session touches
/// only its own state plus const plans). The two halves alternate with a
/// full barrier between them. Phase A falls back to selecting inline only
/// after an unavailable or rejected query.
///
/// Setup stays on the calling thread: each session is constructed and
/// begun there (building sessions on the workers grew peak RSS through
/// per-thread malloc arenas) and selects its first query. Every fresh
/// session of one (plan, k) starts from the same priorities, so a run
/// builds each distinct pair's CrawlSession::InitialOrder once and every
/// session's queue is a cursor into it; the orders live for the run only.
///
/// Determinism (pinned by tests/core/crawl_service_test.cc): transport
/// calls run in one total order — session-index order within a round,
/// rounds increasing, all on one thread — and a session's issue decisions
/// read only its own state plus the transport chain (whose state is a
/// function of that call prefix). Selection reads only session state, and
/// nothing changes it between the end of Phase B and the session's next
/// IssueNext, so selecting in Phase B picks what Phase A would have. Phase
/// B never touches transport and no result crosses sessions, so every
/// per-session CrawlResult, finish order, quota and cache counter is
/// bit-identical at any worker count.
///
/// RunAll() is the batch surface (all outcomes at once, spec order);
/// Drive() is the streaming surface (a callback fires the moment a
/// session finishes) — mirroring the batch-vs-stream run API of the
/// AsyncWebCrawler exemplar in SNIPPETS.md.

namespace smartcrawl::core {

struct CrawlServiceOptions {
  /// Worker threads for the page-processing phase: 0 = hardware
  /// concurrency, 1 = sequential. Results are bit-identical either way.
  unsigned num_threads = 1;

  /// Capacity of the shared cross-tenant LRU query cache sitting between
  /// every tenant's stack and the origin; 0 disables sharing.
  size_t shared_cache_capacity = 4096;

  /// Not an option: the shared cache is one lock-protected LRU. This
  /// constant only keeps source compatibility with perfbench/e2e_bench.cc,
  /// which sizes its replica cache like the service's through the
  /// three-argument net::CachingInterface constructor.
  static constexpr size_t shared_cache_shards = 1;
};

/// One tenant: which plan to crawl with, how many queries it may issue,
/// and the transport layers stacked over the shared cache for it.
struct SessionSpec {
  /// The (shared) build product for this tenant's local table.
  std::shared_ptr<const CrawlPlan> plan;

  /// Crawl budget (queries this session may have answered).
  size_t budget = 0;

  /// Per-tenant transport layered over the shared cache: faults, lifetime
  /// budget, daily quota, retries, private cache. Leave `budget` 0 here
  /// unless the tenant's own meter should also charge shared-cache hits —
  /// the session budget above is enforced engine-side either way.
  net::TransportOptions transport;
};

/// What one finished session hands back.
struct SessionOutcome {
  /// Per-session failure (sibling sessions keep running). When not OK,
  /// `result`/`transport` are default-constructed.
  Status status = Status::OK();
  CrawlResult result;
  /// Counters of this tenant's own stack (retries, faults, private cache).
  net::TransportStats transport;
  /// This tenant's daily-quota consumption, when its stack had a quota
  /// layer (queries charged by the provider; shared-cache hits are free).
  size_t quota_used_today = 0;
};

class CrawlService {
 public:
  /// `origin` is the hidden database endpoint every tenant ultimately
  /// queries (must outlive the service).
  CrawlService(hidden::KeywordSearchInterface* origin,
               CrawlServiceOptions options);
  ~CrawlService();

  CrawlService(const CrawlService&) = delete;
  CrawlService& operator=(const CrawlService&) = delete;

  /// Batch entry point: runs every session to completion and returns the
  /// outcomes in spec order. Calling from a thread that already holds
  /// drive_mu_ (i.e. from inside a Drive callback) would deadlock —
  /// hence SC_EXCLUDES.
  Result<std::vector<SessionOutcome>> RunAll(
      const std::vector<SessionSpec>& specs) SC_EXCLUDES(drive_mu_);

  /// Streaming entry point: like RunAll, but `on_finish(index, outcome)`
  /// fires as soon as session `index` finishes — earlier-finishing
  /// tenants get their results while the rest keep crawling. Callback
  /// order is deterministic (round order, then session index) and
  /// independent of the worker count; the callback always runs on the
  /// calling thread.
  using FinishCallback = std::function<void(size_t, SessionOutcome)>;
  Status Drive(const std::vector<SessionSpec>& specs,
               const FinishCallback& on_finish) SC_EXCLUDES(drive_mu_);

  /// Cumulative counters of the shared cross-tenant cache (nullopt when
  /// shared_cache_capacity was 0). A snapshot by value: the live counters
  /// keep moving under concurrent runs.
  std::optional<net::CacheStats> shared_cache_stats() const;

  /// Cumulative page-match memo counters over all runs: page hits and
  /// misses, and record-token hits and misses (entries count the in-flight
  /// run only: the memo is cleared when a run ends).
  PageMatchMemo::Stats page_memo_stats() const { return page_memo_.stats(); }

 private:
  /// Per-run state, hoisted into a member so its buffers (sessions,
  /// done/pending flags) are allocated once and reused across rounds AND
  /// runs.
  struct RoundScratch;

  hidden::KeywordSearchInterface* origin_;
  CrawlServiceOptions options_;
  /// Serializes whole runs: Drive assumes exclusive use of the origin and
  /// exact per-tenant quota delta-accounting over the shared chain, which
  /// two interleaved Drives would corrupt. Guards the run itself plus the
  /// scratch below — sessions live in the scratch of the running Drive.
  std::mutex drive_mu_;
  /// Reused run state (see RoundScratch). Inside a run the Phase-B
  /// workers only touch their own session's slot.
  std::unique_ptr<RoundScratch> scratch_ SC_GUARDED_BY(drive_mu_);
  /// The shared cross-tenant cache; every tenant stack's origin.
  std::unique_ptr<net::CachingInterface> shared_cache_;
  /// Every session of the running Drive matches pages through this memo;
  /// internally locked, cleared when the run ends.
  PageMatchMemo page_memo_;
};

}  // namespace smartcrawl::core
