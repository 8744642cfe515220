#include "core/crawl_service.h"

#include <utility>

#include "util/status.h"
#include "util/thread_pool.h"

namespace smartcrawl::core {

namespace {

/// Packs a cleanly finished session's result + stack counters. Touches the
/// session's transport, so only Phase A (the calling thread) calls this.
SessionOutcome FinishedOutcome(CrawlSession& session) {
  SessionOutcome outcome;
  outcome.result = session.TakeResult();
  outcome.transport = session.transport()->Stats();
  if (const auto* quota = session.transport()->quota()) {
    outcome.quota_used_today = quota->used_today();
  }
  return outcome;
}

}  // namespace

/// Per-run state (see header): sized once per run, reused across rounds,
/// and the flag buffers keep their capacity across runs.
struct CrawlService::RoundScratch {
  /// The live sessions of the current run. Cleared before Drive returns
  /// (sessions reference caller-owned plans and must not outlive them).
  std::vector<std::unique_ptr<CrawlSession>> sessions;
  /// done[i] == 1 — session i finished (ok or error). Written only by the
  /// setup loop and Phase A.
  std::vector<uint8_t> done;
  /// pending[i] == 1 — session i fetched a page this round (Phase A sets
  /// it, the Phase-B worker that processes the page clears it).
  std::vector<uint8_t> pending;
};

CrawlService::CrawlService(hidden::KeywordSearchInterface* origin,
                           CrawlServiceOptions options)
    : origin_(origin), options_(options) {
  if (options_.shared_cache_capacity > 0) {
    shared_cache_ = std::make_unique<net::CachingInterface>(
        origin_, options_.shared_cache_capacity);
  }
}

// Out of line: RoundScratch is incomplete in the header.
CrawlService::~CrawlService() = default;

std::optional<net::CacheStats> CrawlService::shared_cache_stats() const {
  if (shared_cache_ == nullptr) return std::nullopt;
  return shared_cache_->stats();
}

Status CrawlService::Drive(const std::vector<SessionSpec>& specs,
                           const FinishCallback& on_finish) {
  if (!on_finish) {
    return Status::InvalidArgument("Drive() requires a finish callback");
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].plan == nullptr) {
      return Status::InvalidArgument("session spec " + std::to_string(i) +
                                     " has no plan");
    }
  }
  // One run at a time (see drive_mu_ in the header). Taken after argument
  // validation so bad specs fail fast even while a run is in flight.
  std::lock_guard<std::mutex> run_lock(drive_mu_);
  if (scratch_ == nullptr) scratch_ = std::make_unique<RoundScratch>();
  RoundScratch& sc = *scratch_;

  // Every tenant stack bottoms out in the shared cache (when enabled), so
  // one tenant's answered query is a hit for all the others.
  hidden::KeywordSearchInterface* shared_origin =
      shared_cache_ ? static_cast<hidden::KeywordSearchInterface*>(
                          shared_cache_.get())
                    : origin_;

  const size_t n = specs.size();
  sc.sessions.clear();
  sc.sessions.resize(n);
  // Sessions and memo entries reference caller-owned plans, so they must
  // not outlive this call — clear on EVERY exit path, including a throwing
  // callback unwinding through here. (The flag buffers deliberately stay.)
  struct SessionsClearer {
    std::vector<std::unique_ptr<CrawlSession>>* sessions;
    PageMatchMemo* memo;
    ~SessionsClearer() {
      sessions->clear();
      memo->Clear();
    }
  } clear_on_exit{&sc.sessions, &page_memo_};
  sc.done.assign(n, 0);
  sc.pending.assign(n, 0);
  size_t running = n;

  for (size_t i = 0; i < n; ++i) {
    sc.sessions[i] =
        std::make_unique<CrawlSession>(*specs[i].plan, &page_memo_);
    sc.sessions[i]->AttachTransport(shared_origin, specs[i].transport);
    Status begun = sc.sessions[i]->Begin(
        sc.sessions[i]->transport()->top()->top_k(), specs[i].budget);
    if (!begun.ok()) {
      sc.done[i] = 1;
      --running;
      SessionOutcome outcome;
      outcome.status = std::move(begun);
      on_finish(i, std::move(outcome));
    }
  }
  if (running == 0) return Status::OK();

  util::ThreadPool workers(options_.num_threads);
  while (running > 0) {
    // Phase A — transport: each live session issues at most one accepted
    // query, in session-index order on this thread. All Search calls (and
    // thus all shared-cache mutation) are serialized here; the fixed walk
    // order also keeps per-tenant quota delta-accounting exact over the
    // shared inner chain and makes cross-tenant cache warming
    // deterministic: a query session j answers in this round is already a
    // hit for session i > j in the SAME round.
    for (size_t i = 0; i < n; ++i) {
      if (sc.done[i]) continue;
      Result<bool> have_page = sc.sessions[i]->IssueNext();
      if (have_page.ok() && have_page.value()) {
        sc.pending[i] = 1;
        continue;
      }
      SessionOutcome outcome;
      if (!have_page.ok()) {
        outcome.status = have_page.status();
      } else {
        outcome = FinishedOutcome(*sc.sessions[i]);
      }
      sc.done[i] = 1;
      --running;
      on_finish(i, std::move(outcome));
    }
    // Phase B — compute: match the fetched pages and remove their records
    // on the worker pool. Sessions are isolated (own state + const plans), writes
    // are index-addressed per session, so any thread count produces the
    // same per-session results bit for bit.
    workers.ParallelFor(0, n, /*grain=*/1, [&sc](size_t i) {
      if (sc.pending[i]) {
        sc.sessions[i]->ProcessPendingPage();
        sc.pending[i] = 0;
      }
    });
  }
  return Status::OK();
}

Result<std::vector<SessionOutcome>> CrawlService::RunAll(
    const std::vector<SessionSpec>& specs) {
  std::vector<SessionOutcome> outcomes(specs.size());
  SC_RETURN_NOT_OK(Drive(specs, [&outcomes](size_t i, SessionOutcome out) {
    outcomes[i] = std::move(out);
  }));
  return outcomes;
}

}  // namespace smartcrawl::core
