#include "core/crawl_session.h"

#include <algorithm>
#include <cassert>
#include <utility>

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
      num_active_(plan.num_records()) {}

void CrawlSession::AttachTransport(hidden::KeywordSearchInterface* origin,
                                   const net::TransportOptions& options) {
  transport_ = std::make_unique<net::TransportStack>(origin, options);
}

double CrawlSession::PriorityOf(QueryIdx q) const {
  // The liveness epsilon (see kLivenessEpsilon) keeps zero-estimate queries
  // that still match uncovered records above the stop-on-zero threshold
  // without disturbing the ordering of real estimates; ties are then broken
  // deterministically by query id.
  switch (plan_->options().policy) {
    case SelectionPolicy::kSimple:
    case SelectionPolicy::kBound:
      return static_cast<double>(freq_d_[q]);
    case SelectionPolicy::kIdeal:
      return static_cast<double>(cover_count_[q]);
    case SelectionPolicy::kEstBiased:
      return EstimateBenefit(EstimatorKind::kBiased, freq_d_[q],
                             plan_->freq_hs()[q], inter_[q], ctx_) +
             (freq_d_[q] > 0 ? kLivenessEpsilon : 0.0);
    case SelectionPolicy::kEstUnbiased:
      return EstimateBenefit(EstimatorKind::kUnbiased, freq_d_[q],
                             plan_->freq_hs()[q], inter_[q], ctx_) +
             (freq_d_[q] > 0 ? kLivenessEpsilon : 0.0);
  }
  return 0.0;
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
      dirtied->push_back(q);
    }
    if (!cover_count_.empty()) {
      for (index::QueryIdx q : plan_->cover_forward().Queries(d)) {
        if (cover_count_[q] > 0) --cover_count_[q];
        dirtied->push_back(q);
      }
    }
  }
}

Status CrawlSession::Begin(size_t top_k, size_t budget) {
  if (pending_) {
    return Status::FailedPrecondition(
        "Begin() called with a page still pending; call "
        "ProcessPendingPage() first");
  }
  if (pq_ == nullptr) {
    // First call: fix k and seed the selection state.
    ctx_.k = top_k;
    pq_ = std::make_unique<index::LazyPriorityQueue>(
        [this](uint32_t q) { return PriorityOf(q); });
    for (QueryIdx q = 0; q < plan_->pool().size(); ++q) {
      pq_->Push(q, PriorityOf(q));
    }
  } else if (ctx_.k != top_k) {
    return Status::InvalidArgument(
        "resumed Crawl() must use an interface with the same top-k (" +
        std::to_string(ctx_.k) + " vs " + std::to_string(top_k) + ")");
  }
  result_ = CrawlResult{};
  budget_left_ = budget;
  decrements_at_start_ = delta_decrements_total_;
  finished_ = false;
  return Status::OK();
}

Result<bool> CrawlSession::IssueNext(hidden::KeywordSearchInterface* iface) {
  assert(!pending_ && "process the pending page before issuing again");
  while (true) {
    if (budget_left_ == 0 || num_active_ == 0) {
      if (num_active_ == 0) result_.stopped_early = true;
      finished_ = true;
      return false;
    }
    uint32_t q = 0;
    double priority = 0.0;
    if (!pq_->PopMax(&q, &priority)) {
      result_.stopped_early = true;
      finished_ = true;
      return false;
    }
    if (priority <= 0.0 && plan_->options().stop_on_zero_benefit) {
      result_.stopped_early = true;
      finished_ = true;
      return false;
    }

    auto page_or = iface->Search(plan_->pool().queries[q].keywords);
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
  const std::vector<table::Record>& page = pending_page_;
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
  for (const auto& rec : page) log.page_entities.push_back(rec.entity_id);
  result_.iterations.push_back(std::move(log));

  if (options.keep_crawled_records) {
    for (const auto& rec : page) {
      uint64_t key = rec.entity_id != table::kUnknownEntity
                         ? rec.entity_id
                         : static_cast<uint64_t>(rec.id);
      // Dedup across resumed calls; this call's result only gets records
      // first crawled now.
      if (crawled_keys_.emplace(key, crawled_records_.size()).second) {
        crawled_records_.push_back(rec);
        result_.crawled_records.push_back(rec);
      }
    }
  }

  std::vector<table::RecordId> covered_now =
      page_memo_ != nullptr ? page_memo_->Match(*plan_, q, page, removed_)
                            : plan_->MatchPage(q, page, removed_);
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
        for (table::RecordId d : plan_->ActivePostings(q, removed_)) {
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

  // A batch of removed records dirties the same query many times; the
  // priority queue repairs each entry at most once, so deduplicate before
  // repairing (and count the fan-out as the queue actually sees it).
  std::sort(dirtied.begin(), dirtied.end());
  dirtied.erase(std::unique(dirtied.begin(), dirtied.end()), dirtied.end());
  result_.stats.fanout_updates += dirtied.size();
  result_.stats.records_fetched += page.size();
  for (QueryIdx dq : dirtied) pq_->MarkDirty(dq);

  pending_ = false;
  // clear() keeps the capacity: the next IssueNext move-assigns a fresh
  // page anyway, and steady-state rounds must not churn the allocator.
  pending_page_.clear();
}

CrawlResult CrawlSession::TakeResult() {
  assert(!pending_ && "process the pending page before taking the result");
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
