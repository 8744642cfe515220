#include "core/crawl_service.h"

#include <exception>
#include <thread>
#include <utility>

#include "util/round_pipeline.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace smartcrawl::core {

namespace {

/// One round's hand-off payload, produced by the issuer (Phase A) and
/// consumed by the drive thread + workers (Phase B). Lives inside a
/// util::RoundHandoff double buffer, so the vectors' capacity is reused
/// for every round of every run.
struct PipelineRound {
  /// pending[i] == 1 — session i fetched a page this round.
  std::vector<uint8_t> pending;
  /// Sessions that finished during this round's Phase A (in index order),
  /// with their outcomes; the consumer fires on_finish for them BEFORE
  /// this round's Phase B, which reproduces the round-based callback
  /// order exactly.
  std::vector<std::pair<size_t, SessionOutcome>> finished;
  size_t num_pending = 0;
  /// True when no session survived this round: consume it, then stop.
  bool last = false;
};

/// Packs a cleanly finished session's result + stack counters. Touches the
/// session's transport, so in pipelined mode only the issuer calls this.
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

/// Per-run state shared by both drive modes (see header). Everything here
/// is sized once per run and reused across rounds; the gate/handoff/flag
/// buffers additionally persist ACROSS runs.
struct CrawlService::RoundScratch {
  /// The live sessions of the current run. Cleared before Drive returns
  /// (sessions reference caller-owned plans and must not outlive them).
  std::vector<std::unique_ptr<CrawlSession>> sessions;
  /// done[i] == 1 — session i finished (ok or error). Written only by the
  /// setup loop and then by whichever thread runs Phase A.
  std::vector<uint8_t> done;
  /// Round-based mode's pending flags (pipelined rounds carry their own
  /// inside the hand-off payloads).
  std::vector<uint8_t> pending;
  /// Pipelined mode: per-session "round r's page was processed" epochs.
  util::EpochGate gate;
  /// Pipelined mode: double-buffered issuer → consumer round hand-off.
  util::RoundHandoff<PipelineRound> handoff;
};

CrawlService::CrawlService(hidden::KeywordSearchInterface* origin,
                           CrawlServiceOptions options)
    : origin_(origin), options_(options) {
  if (options_.shared_cache_capacity > 0) {
    shared_cache_ = std::make_unique<net::CachingInterface>(
        origin_, options_.shared_cache_capacity,
        options_.shared_cache_shards);
  }
}

// Out of line: RoundScratch is incomplete in the header.
CrawlService::~CrawlService() = default;

std::optional<net::CacheStats> CrawlService::shared_cache_stats() const {
  if (shared_cache_ == nullptr) return std::nullopt;
  return shared_cache_->stats();
}

std::vector<net::CachingInterface::ShardSnapshot>
CrawlService::shared_cache_shard_stats() const {
  if (shared_cache_ == nullptr) return {};
  return shared_cache_->shard_stats();
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
  // callback unwinding through here. (The flag/round buffers deliberately
  // stay.)
  struct SessionsClearer {
    std::vector<std::unique_ptr<CrawlSession>>* sessions;
    PageMatchMemo* memo;
    ~SessionsClearer() {
      sessions->clear();
      memo->Clear();
    }
  } clear_on_exit{&sc.sessions, &page_memo_};
  sc.done.assign(n, 0);
  size_t running = n;

  // Batched repair gets its own pool: Phase B runs ProcessPendingPage on
  // the worker pool, and a pool must not be re-entered from its own
  // workers. Concurrent ParallelFor calls from different Phase-B workers
  // onto this one pool are safe (per-run chunk state).
  std::unique_ptr<util::ThreadPool> repair_pool;
  if (options_.pq_repair == PqRepairMode::kBatched &&
      util::ResolveNumThreads(options_.repair_threads) > 1) {
    repair_pool = std::make_unique<util::ThreadPool>(options_.repair_threads);
  }

  for (size_t i = 0; i < n; ++i) {
    sc.sessions[i] =
        std::make_unique<CrawlSession>(*specs[i].plan, &page_memo_);
    sc.sessions[i]->ConfigureRepair(options_.pq_repair, repair_pool.get());
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
  if (options_.drive_mode == DriveMode::kRoundBased) {
    return DriveRoundBased(on_finish, running, &workers);
  }
  return DrivePipelined(on_finish, running, &workers);
}

Status CrawlService::DriveRoundBased(const FinishCallback& on_finish,
                                     size_t running,
                                     util::ThreadPool* workers) {
  RoundScratch& sc = *scratch_;
  const size_t n = sc.sessions.size();
  sc.pending.assign(n, 0);

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
    // Phase B — compute: match/remove/repair the fetched pages on the
    // worker pool. Sessions are isolated (own state + const plans), writes
    // are index-addressed per session, so any thread count produces the
    // same per-session results bit for bit.
    workers->ParallelFor(0, n, /*grain=*/1, [&sc](size_t i) {
      if (sc.pending[i]) {
        sc.sessions[i]->ProcessPendingPage();
        sc.pending[i] = 0;
      }
    });
  }
  return Status::OK();
}

Status CrawlService::DrivePipelined(const FinishCallback& on_finish,
                                    size_t running,
                                    util::ThreadPool* workers) {
  RoundScratch& sc = *scratch_;
  const size_t n = sc.sessions.size();
  sc.gate.Reset(n);
  sc.handoff.Reset();

  // Written by the issuer before it aborts the pipeline; read by this
  // thread only after join() (which carries the happens-before edge).
  std::exception_ptr issuer_error;

  // The issuer owns Phase A: the SAME session-index walk as the
  // round-based driver, one round ahead of the consumer. All transport
  // (and shared-cache mutation, and quota delta-accounting) stays
  // serialized on this one thread in an identical total order, which is
  // the heart of the determinism argument (see header). `running` moves
  // to the issuer by value — after setup only the issuer tracks it.
  std::thread issuer([&sc, &issuer_error, n, running]() mutable {
    try {
      uint64_t round = 0;
      while (running > 0) {
        PipelineRound* r = sc.handoff.AcquireForProduce(round);
        if (r == nullptr) return;  // consumer unwound; stop quietly
        r->pending.assign(n, 0);
        r->finished.clear();
        r->num_pending = 0;
        r->last = false;
        for (size_t i = 0; i < n; ++i) {
          if (sc.done[i]) continue;
          // The one real cross-phase dependency: session i may issue in
          // round r only once ITS round r-1 page was processed. Per-index,
          // so the issuer chases the workers through the previous round
          // instead of waiting for a barrier. Round 0 passes trivially.
          if (!sc.gate.AwaitAtLeast(i, round)) return;
          Result<bool> have_page = sc.sessions[i]->IssueNext();
          if (have_page.ok() && have_page.value()) {
            r->pending[i] = 1;
            ++r->num_pending;
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
          r->finished.emplace_back(i, std::move(outcome));
        }
        r->last = running == 0;
        sc.handoff.Publish(round);
        ++round;
      }
    } catch (...) {
      issuer_error = std::current_exception();
      sc.handoff.Abort();  // wake the consumer; sticky until next run
      sc.gate.Abort();
    }
  });

  // If Phase B or a finish callback throws, the unwind must wake the
  // issuer out of any wait and join it BEFORE leaving this frame (it
  // captures frame-local state). Abort is sticky and join is idempotent
  // via joinable(), so the clean path below can also run first.
  struct IssuerJoiner {
    RoundScratch* sc;
    std::thread* issuer;
    ~IssuerJoiner() {
      sc->handoff.Abort();
      sc->gate.Abort();
      if (issuer->joinable()) issuer->join();
    }
  } join_on_exit{&sc, &issuer};

  // The consumer owns Phase B, strictly one round at a time, in round
  // order. Finish callbacks fire here — on the Drive-calling thread, in
  // (round, index) order, before the round's pages are processed —
  // matching the round-based driver's observable order exactly.
  uint64_t round = 0;
  while (true) {
    PipelineRound* r = sc.handoff.AcquireForConsume(round);
    if (r == nullptr) break;  // issuer aborted; its error rethrows below
    for (auto& finished : r->finished) {
      on_finish(finished.first, std::move(finished.second));
    }
    if (r->num_pending > 0) {
      workers->ParallelFor(0, n, /*grain=*/1, [&sc, r, round](size_t i) {
        if (r->pending[i]) {
          sc.sessions[i]->ProcessPendingPage();
          // Unblocks the issuer's round+1 issue for THIS session only.
          sc.gate.Advance(i, round + 1);
        }
      });
    }
    const bool last = r->last;
    sc.handoff.Release(round);
    ++round;
    if (last) break;
  }

  sc.handoff.Abort();  // no-op on a clean finish: the issuer already left
  sc.gate.Abort();
  issuer.join();
  if (issuer_error != nullptr) std::rethrow_exception(issuer_error);
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
