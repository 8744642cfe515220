#include "core/crawl_session.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/page_match_memo.h"
#include "util/result.h"
#include "util/status.h"

/// \file crawl_session.cc
/// The crawl loop of SmartCrawler::Crawl, decomposed into Begin /
/// IssueNext / ProcessPendingPage / TakeResult. The decomposition is a
/// pure re-slicing: Crawl() below drives the steps in exactly the order
/// the fused loop executed them, so results are bit-identical (pinned by
/// the golden suite and the service equivalence tests).

namespace smartcrawl::core {

namespace {

/// The selection priority of pool query `q` under `plan`'s policy, given
/// the per-query counters. The liveness epsilon (see kLivenessEpsilon)
/// keeps zero-estimate queries that still match uncovered records above
/// the stop-on-zero threshold without disturbing the ordering of real
/// estimates; ties are then broken deterministically by query id.
double PriorityFrom(const CrawlPlan& plan, const EstimatorContext& ctx,
                    std::span<const uint32_t> freq_d,
                    std::span<const uint32_t> inter,
                    std::span<const uint32_t> cover_count, QueryIdx q) {
  switch (plan.options().policy) {
    case SelectionPolicy::kSimple:
    case SelectionPolicy::kBound:
      return static_cast<double>(freq_d[q]);
    case SelectionPolicy::kIdeal:
      return static_cast<double>(cover_count[q]);
    case SelectionPolicy::kEstBiased:
      return EstimateBenefit(EstimatorKind::kBiased, freq_d[q],
                             plan.freq_hs()[q], inter[q], ctx) +
             (freq_d[q] > 0 ? kLivenessEpsilon : 0.0);
    case SelectionPolicy::kEstUnbiased:
      return EstimateBenefit(EstimatorKind::kUnbiased, freq_d[q],
                             plan.freq_hs()[q], inter[q], ctx) +
             (freq_d[q] > 0 ? kLivenessEpsilon : 0.0);
  }
  return 0.0;
}

}  // namespace

CrawlSession::CrawlSession(const CrawlPlan& plan, PageMatchMemo* page_memo)
    : plan_(&plan),
      page_memo_(page_memo),
      freq_d_(plan.initial_freq_d().begin(), plan.initial_freq_d().end()),
      inter_(plan.initial_inter().begin(), plan.initial_inter().end()),
      cover_count_(plan.initial_cover_count().begin(),
                   plan.initial_cover_count().end()),
      ctx_(plan.estimator_context()),
      removed_(plan.num_records(), 0),
      covered_(plan.num_records(), 0),
      num_active_(plan.num_records()),
      in_frontier_(plan.pool().size(), 0) {}

void CrawlSession::AttachTransport(hidden::KeywordSearchInterface* origin,
                                   const net::TransportOptions& options) {
  transport_ = std::make_unique<net::TransportStack>(origin, options);
}

double CrawlSession::PriorityOf(QueryIdx q) const {
  return PriorityFrom(*plan_, ctx_, freq_d_, inter_, cover_count_, q);
}

CrawlSession::InitialOrder CrawlSession::BuildInitialOrder(
    const CrawlPlan& plan, size_t top_k) {
  // A fresh session's counters are the plan's initial ones and its context
  // is the plan's with k pinned, so these are exactly the priorities its
  // PriorityOf would compute.
  EstimatorContext ctx = plan.estimator_context();
  ctx.k = top_k;
  std::vector<index::LazyPriorityQueue::Entry> entries(plan.pool().size());
  for (QueryIdx q = 0; q < entries.size(); ++q) {
    entries[q] = {PriorityFrom(plan, ctx, plan.initial_freq_d(),
                               plan.initial_inter(),
                               plan.initial_cover_count(), q),
                  q};
  }
  return InitialOrder{&plan, top_k,
                      index::LazyPriorityQueue::MakeOrder(std::move(entries))};
}

void CrawlSession::AddToFrontier(QueryIdx q, std::vector<QueryIdx>* dirtied) {
  // A batch of removed records dirties the same query many times; the
  // priority queue repairs each entry at most once.
  if (in_frontier_[q]) return;
  in_frontier_[q] = 1;
  dirtied->push_back(q);
}

void CrawlSession::RemoveRecords(const std::vector<table::RecordId>& ids,
                                 std::vector<QueryIdx>* dirtied) {
  // Pure index-addressed arithmetic: the forward row gives the fan-out,
  // the value-aligned forward_dec gives each inter_[q] delta precomputed
  // at plan build — no ContainsAll re-evaluation per (record × query ×
  // match). The subtraction saturates like the old guarded decrement did;
  // in practice forward_dec[i] <= inter_[q] whenever d is still active
  // (d's own contribution is part of the sum).
  std::span<const uint32_t> forward_dec = plan_->forward_dec();
  const bool have_dec = !forward_dec.empty();
  const index::ForwardIndex& forward = plan_->forward();
  std::span<const index::QueryIdx> fwd = forward.values();
  for (table::RecordId d : ids) {
    if (removed_[d]) continue;
    removed_[d] = 1;
    --num_active_;
    auto [lo, hi] = forward.RowBounds(d);
    for (size_t i = lo; i < hi; ++i) {
      const index::QueryIdx q = fwd[i];
      --freq_d_[q];
      if (have_dec) {
        const uint32_t dec = std::min(forward_dec[i], inter_[q]);
        inter_[q] -= dec;
        delta_decrements_total_ += dec;
      }
      AddToFrontier(q, dirtied);
    }
    if (!cover_count_.empty()) {
      for (index::QueryIdx q : plan_->cover_forward().Queries(d)) {
        if (cover_count_[q] > 0) --cover_count_[q];
        AddToFrontier(q, dirtied);
      }
    }
  }
}

Status CrawlSession::Begin(size_t top_k, size_t budget,
                           const InitialOrder* order) {
  if (pending_) {
    return Status::FailedPrecondition(
        "Begin() called with a page still pending; call "
        "ProcessPendingPage() first");
  }
  if (pq_ == nullptr) {
    // First call: fix k and seed the selection state.
    InitialOrder own;
    if (order == nullptr) {
      own = BuildInitialOrder(*plan_, top_k);
      order = &own;
    } else if (order->plan != plan_ || order->top_k != top_k) {
      return Status::InvalidArgument(
          "Begin() was given an initial order built for another plan or "
          "top-k");
    }
    ctx_.k = top_k;
    pq_ = std::make_unique<index::LazyPriorityQueue>(
        [this](uint32_t q) { return PriorityOf(q); }, order->entries);
  } else if (ctx_.k != top_k) {
    return Status::InvalidArgument(
        "resumed Crawl() must use an interface with the same top-k (" +
        std::to_string(ctx_.k) + " vs " + std::to_string(top_k) + ")");
  }
  Unpark();
  result_ = CrawlResult{};
  budget_left_ = budget;
  decrements_at_start_ = delta_decrements_total_;
  finished_ = false;
  return Status::OK();
}

void CrawlSession::Select() {
  assert(!pending_ && "process the pending page before selecting");
  if (finished_ || parked_ != Parked::kNothing) return;
  if (budget_left_ == 0 || num_active_ == 0) {
    parked_ = num_active_ == 0 ? Parked::kStopEarly : Parked::kStop;
    return;
  }
  if (!pq_->PopMax(&parked_query_, &parked_priority_)) {
    parked_ = Parked::kStopEarly;
    return;
  }
  parked_popped_ = true;
  parked_ = parked_priority_ <= 0.0 && plan_->options().stop_on_zero_benefit
                ? Parked::kStopEarly
                : Parked::kQuery;
}

void CrawlSession::Unpark() {
  if (parked_popped_) pq_->Push(parked_query_, parked_priority_);
  parked_popped_ = false;
  parked_ = Parked::kNothing;
}

Result<bool> CrawlSession::IssueNext(hidden::KeywordSearchInterface* iface) {
  assert(!pending_ && "process the pending page before issuing again");
  while (true) {
    Select();  // a no-op when the selection is already parked
    const Parked parked = std::exchange(parked_, Parked::kNothing);
    parked_popped_ = false;  // consumed: a stop drops its popped query
    if (parked != Parked::kQuery) {
      if (parked == Parked::kStopEarly) result_.stopped_early = true;
      finished_ = true;
      return false;
    }
    const QueryIdx q = parked_query_;
    const double priority = parked_priority_;

    auto page_or = iface->SearchPage(plan_->pool().queries[q].keywords);
    if (!page_or.ok()) {
      if (page_or.status().IsBudgetExhausted()) {
        // Out of quota mid-call: keep the selected query for the next
        // call (resumability) and stop.
        pq_->Push(q, priority);
        finished_ = true;
        return false;
      }
      if (page_or.status().IsUnavailable()) {
        // Transport failure that survived the resilient layers: skip this
        // query and keep crawling. The query is retired rather than
        // re-pushed — re-pushing at the same priority would re-select it
        // immediately and spin against a dead endpoint.
        ++result_.stats.queries_unavailable;
        continue;
      }
      // Query rejected by the interface (not counted): drop it and go on.
      ++result_.stats.queries_rejected;
      continue;
    }
    pending_page_ = std::move(page_or).value();
    pending_query_ = q;
    pending_priority_ = priority;
    pending_ = true;
    --budget_left_;
    ++result_.queries_issued;
    return true;
  }
}

Result<bool> CrawlSession::IssueNext() {
  assert(transport_ != nullptr && "AttachTransport first");
  return IssueNext(transport_->top());
}

void CrawlSession::ProcessPendingPage() {
  assert(pending_ && "IssueNext must have returned a page");
  const QueryIdx q = pending_query_;
  const hidden::Page& page = *pending_page_;
  const std::vector<table::Record>& records = page.records();
  const SmartCrawlOptions& options = plan_->options();

  const bool est_policy = options.policy == SelectionPolicy::kEstBiased ||
                          options.policy == SelectionPolicy::kEstUnbiased;
  IterationLog log;
  log.query = plan_->pool().queries[q].Display();
  log.page_size = static_cast<uint32_t>(page.size());
  // Strip the liveness epsilon so the log shows the raw estimate.
  log.estimated_benefit =
      (est_policy && freq_d_[q] > 0 && pending_priority_ >= kLivenessEpsilon)
          ? pending_priority_ - kLivenessEpsilon
          : pending_priority_;
  log.page_entities.reserve(page.size());
  for (const auto& rec : records) {
    log.page_entities.push_back(rec.entity_id);
  }
  result_.iterations.push_back(std::move(log));

  if (options.keep_crawled_records) {
    for (const auto& rec : records) {
      uint64_t key = rec.entity_id != table::kUnknownEntity
                         ? rec.entity_id
                         : static_cast<uint64_t>(rec.id);
      // Dedup across resumed calls; this call's result only gets records
      // first crawled now.
      if (crawled_keys_.insert(key).second) {
        result_.crawled_records.push_back(rec);
      }
    }
  }

  std::vector<table::RecordId> covered_now =
      page_memo_ != nullptr ? page_memo_->Match(*plan_, q, page, removed_)
                            : plan_->MatchPage(q, records, removed_);
  for (table::RecordId d : covered_now) covered_[d] = 1;

  dirty_frontier_.clear();  // reused scratch: no per-page allocation
  std::vector<QueryIdx>& dirtied = dirty_frontier_;
  // ctx_.k was pinned to the interface's top-k by Begin(), so solidity is
  // decidable without touching the interface from this (worker) thread.
  const bool page_solid = page.size() < ctx_.k;

  switch (options.policy) {
    case SelectionPolicy::kBound: {
      // Algorithm 3: unmatched active records of q(D) are q(ΔD).
      std::vector<table::RecordId> active =
          plan_->ActivePostings(q, removed_);
      std::vector<table::RecordId> unmatched;
      unmatched.reserve(active.size());
      for (table::RecordId d : active) {
        if (!std::binary_search(covered_now.begin(), covered_now.end(),
                                d)) {
          unmatched.push_back(d);
        }
      }
      if (unmatched.empty()) {
        RemoveRecords(covered_now, &dirtied);
        // Query retired (not re-pushed).
      } else {
        RemoveRecords(unmatched, &dirtied);
        // Covered records stay in D; the query stays in the pool.
        pq_->Push(q, PriorityOf(q));
      }
      break;
    }
    case SelectionPolicy::kEstBiased:
    case SelectionPolicy::kEstUnbiased: {
      std::vector<table::RecordId> to_remove = covered_now;
      if (page_solid && options.remove_unmatched_solid) {
        // Sec. 4.2: for a solid query, q(H) was fully returned; any
        // unmatched record of q(D) provably has no match in H.
        std::vector<table::RecordId> active =
            plan_->ActivePostings(q, removed_);
        to_remove.reserve(to_remove.size() + active.size());
        for (table::RecordId d : active) {
          if (!std::binary_search(covered_now.begin(), covered_now.end(),
                                  d)) {
            to_remove.push_back(d);
          }
        }
      }
      RemoveRecords(to_remove, &dirtied);
      break;
    }
    case SelectionPolicy::kSimple:
    case SelectionPolicy::kIdeal: {
      RemoveRecords(covered_now, &dirtied);
      break;
    }
  }

  // The frontier holds each dirtied query once (AddToFrontier), so the
  // fan-out counts queries as the priority queue sees them. Clearing the
  // marks leaves them all zero for the next page.
  result_.stats.fanout_updates += dirtied.size();
  result_.stats.records_fetched += page.size();
  for (QueryIdx dq : dirtied) {
    pq_->MarkDirty(dq);
    in_frontier_[dq] = 0;
  }

  pending_ = false;
  // Drops this session's hold on the shared page. A cache-served page stays
  // alive in the cache, so steady-state rounds do not churn the allocator
  // (pinned by tests/core/page_alloc_test.cc).
  pending_page_.reset();
}

CrawlResult CrawlSession::TakeResult() {
  assert(!pending_ && "process the pending page before taking the result");
  Unpark();
  for (table::RecordId d = 0; d < covered_.size(); ++d) {
    if (covered_[d]) result_.covered_local_ids.push_back(d);
  }
  result_.stats.pool_size = plan_->pool().size();
  // Lifetime on-pop repairs (see LazyPriorityQueue::num_recomputes).
  result_.stats.pq_recomputes = pq_ ? pq_->num_recomputes() : 0;
  result_.stats.delta_decrements =
      static_cast<size_t>(delta_decrements_total_ - decrements_at_start_);
  finished_ = true;
  return std::move(result_);
}

Result<CrawlResult> CrawlSession::Crawl(hidden::KeywordSearchInterface* iface,
                                        size_t budget) {
  SC_RETURN_NOT_OK(Begin(iface->top_k(), budget));
  while (true) {
    SC_ASSIGN_OR_RETURN(bool have_page, IssueNext(iface));
    if (!have_page) break;
    ProcessPendingPage();
  }
  return TakeResult();
}

Result<CrawlResult> CrawlSession::Crawl(size_t budget) {
  if (transport_ == nullptr) {
    return Status::FailedPrecondition(
        "Crawl(budget) needs an attached transport stack; call "
        "AttachTransport first or pass an interface explicitly");
  }
  return Crawl(transport_->top(), budget);
}

}  // namespace smartcrawl::core
