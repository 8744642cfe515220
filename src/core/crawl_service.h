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
/// advanced in rounds behind one shared, sharded query cache.
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
/// pages through one core::PageMatchMemo, so a page that many tenants of
/// the same plan fetch is tokenized and matched once per run, and each
/// session only filters the memoized matches through its own removed
/// bitmap (results are identical to memo-less sessions; see
/// page_match_memo.h). The memo is cleared when the run ends.
///
/// Each round has an issue half (Phase A: every live session issues at
/// most one accepted query, in session-index order, all transport and
/// shared-cache mutation serialized on one thread) and a compute half
/// (Phase B: the fetched pages are matched/removed/repaired on the worker
/// pool; each session touches only its own state plus const plans). Two
/// drive modes schedule those halves (DriveMode):
///
///  * kRoundBased — the reference implementation: Phase A and Phase B
///    alternate with a full barrier between them, both on the calling
///    thread's round loop.
///  * kPipelined (default) — a dedicated issuer thread runs Phase A for
///    round r+1 while the worker pool runs Phase B for round r, handing
///    rounds off through a double-buffered util::RoundHandoff with
///    reusable scratch. A util::EpochGate encodes the one real
///    dependency at per-session granularity — session i may issue in
///    round r+1 only after ITS round-r page was processed — so the
///    issuer chases the workers through a round instead of waiting for
///    the barrier.
///
/// Determinism (the pipelined mode's headline claim, pinned by
/// tests/core/crawl_service_test.cc): both modes execute the SAME total
/// order of transport calls — session-index order within a round, rounds
/// increasing, all on one thread — and a session's issue decisions read
/// only its own state (complete through its previous round, by the epoch
/// gate) plus the transport chain (whose state is a function of the
/// identical call prefix). Phase B never touches transport and no result
/// crosses sessions, so overlapping it with the next round's Phase A
/// reorders nothing observable: every per-session CrawlResult, finish
/// order, quota and cache counter is bit-identical across modes, worker
/// counts, repair widths and shard counts (shard counts assuming no
/// eviction; see docs/architecture.md §6).
///
/// RunAll() is the batch surface (all outcomes at once, spec order);
/// Drive() is the streaming surface (a callback fires the moment a
/// session finishes) — mirroring the batch-vs-stream run API of the
/// AsyncWebCrawler exemplar in SNIPPETS.md.

namespace smartcrawl::core {

/// How Drive schedules the issue and compute halves of a round (see file
/// comment). Results are bit-identical in both modes; only overlap — and
/// therefore throughput — differs.
enum class DriveMode : uint8_t {
  kRoundBased = 0,
  kPipelined = 1,
};

struct CrawlServiceOptions {
  /// Worker threads for the page-processing phase: 0 = hardware
  /// concurrency, 1 = sequential. Results are bit-identical either way.
  unsigned num_threads = 1;

  /// Phase scheduling (see DriveMode). Pipelined is the default; the
  /// round-based driver is kept as the always-correct reference the
  /// equivalence tests compare against.
  DriveMode drive_mode = DriveMode::kPipelined;

  /// Capacity of the shared cross-tenant LRU query cache sitting between
  /// every tenant's stack and the origin; 0 disables sharing.
  size_t shared_cache_capacity = 4096;

  /// Stripe count of the shared cache (see net::CachingInterface):
  /// independently locked shards routed by normalized-key hash, so
  /// issuer-side lookups do not funnel through one mutex. Capacity is
  /// split across shards, so with an eviction-free working set results
  /// AND cache counters are shard-count-invariant.
  size_t shared_cache_shards = 8;

  /// How sessions repair dirtied priority-queue entries (see
  /// CrawlSession::ConfigureRepair). Selection is bit-identical in both
  /// modes; only repair cost and the pq_recomputes accounting differ.
  PqRepairMode pq_repair = PqRepairMode::kBatched;

  /// Threads of the DEDICATED batched-repair pool (same 0/1/n convention
  /// as num_threads; ignored under kPoint). Dedicated because Phase B
  /// already runs ProcessPendingPage on the worker pool and a
  /// util::ThreadPool must not be re-entered from its own workers; with
  /// 1 the frontier re-estimation runs inline on whichever thread
  /// processes the page. Bit-identical at any value.
  unsigned repair_threads = 1;
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
  /// identical in both drive modes; the callback always runs on the
  /// calling thread.
  using FinishCallback = std::function<void(size_t, SessionOutcome)>;
  Status Drive(const std::vector<SessionSpec>& specs,
               const FinishCallback& on_finish) SC_EXCLUDES(drive_mu_);

  /// Cumulative counters of the shared cross-tenant cache (nullopt when
  /// shared_cache_capacity was 0), summed over the shards with one short
  /// lock per shard — never a global lock. A snapshot by value: the live
  /// counters keep moving under concurrent runs.
  std::optional<net::CacheStats> shared_cache_stats() const;

  /// Per-shard counters + occupancy of the shared cache, in shard order
  /// (empty when sharing is disabled). Used by bench_service to report
  /// stripe balance.
  std::vector<net::CachingInterface::ShardSnapshot> shared_cache_shard_stats()
      const;

  /// Cumulative page-match memo counters over all runs (entries count the
  /// in-flight run only: the memo is cleared when a run ends).
  PageMatchMemo::Stats page_memo_stats() const { return page_memo_.stats(); }

 private:
  /// Per-run state both drive modes share, hoisted into a member so its
  /// buffers (done/pending flags, round slots, epoch table, outcome
  /// staging) are allocated once and reused across rounds AND runs.
  struct RoundScratch;

  /// The mode-specific round loops; Drive() does the shared setup
  /// (session construction, transport attachment, Begin) and dispatches.
  /// `running` is the number of sessions still live after setup (> 0).
  Status DriveRoundBased(const FinishCallback& on_finish, size_t running,
                         util::ThreadPool* workers) SC_REQUIRES(drive_mu_);
  Status DrivePipelined(const FinishCallback& on_finish, size_t running,
                        util::ThreadPool* workers) SC_REQUIRES(drive_mu_);

  hidden::KeywordSearchInterface* origin_;
  CrawlServiceOptions options_;
  /// Serializes whole runs: Drive assumes exclusive use of the origin and
  /// exact per-tenant quota delta-accounting over the shared chain, which
  /// two interleaved Drives would corrupt. Guards the run itself plus the
  /// scratch below — sessions live in the scratch of the running Drive.
  std::mutex drive_mu_;
  /// Reused run state (see RoundScratch). Inside a pipelined run the
  /// issuer thread and the workers access disjoint parts of it under the
  /// pipeline's own hand-off protocol; drive_mu_ guards it between runs.
  std::unique_ptr<RoundScratch> scratch_ SC_GUARDED_BY(drive_mu_);
  /// The shared cross-tenant cache; every tenant stack's origin.
  std::unique_ptr<net::CachingInterface> shared_cache_;
  /// Every session of the running Drive matches pages through this memo;
  /// internally locked, cleared when the run ends.
  PageMatchMemo page_memo_;
};

}  // namespace smartcrawl::core
