#include "core/crawl_plan.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "index/inverted_index.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "text/token_set.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace smartcrawl::core {

std::string PolicyName(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kSimple:
      return "QSel-Simple";
    case SelectionPolicy::kBound:
      return "QSel-Bound";
    case SelectionPolicy::kEstBiased:
      return "SmartCrawl-B";
    case SelectionPolicy::kEstUnbiased:
      return "SmartCrawl-U";
    case SelectionPolicy::kIdeal:
      return "IdealCrawl";
  }
  return "?";
}

/// The one mutating code path of a CrawlPlan: runs the whole build phase
/// against a freshly allocated plan, then hands it over frozen. The
/// parallel stages write index-addressed slots and fill every CSR in
/// ascending order, so a plan is bit-identical at any thread count and
/// crawls over it match the golden suite.
class CrawlPlanBuilder {
 public:
  CrawlPlanBuilder(CrawlPlan* plan, const sample::HiddenSample* sample,
                   const hidden::HiddenDatabase* oracle)
      : p_(*plan), sample_(sample), oracle_(oracle) {}

  void Run(const table::Table* local, SmartCrawlOptions options);

 private:
  void InitSampleState(util::ThreadPool* tp);
  void InitIdealState(util::ThreadPool* tp);

  CrawlPlan& p_;
  const sample::HiddenSample* sample_;
  const hidden::HiddenDatabase* oracle_;
  /// Sample documents over p_.dict_ (build-scoped; the plan itself only
  /// needs the derived counts and adjacencies).
  std::vector<text::Document> sample_docs_;
};

Result<std::unique_ptr<CrawlPlan>> CrawlPlan::Build(
    const table::Table* local, SmartCrawlOptions options,
    const sample::HiddenSample* sample,
    const hidden::HiddenDatabase* oracle) {
  if (local == nullptr) {
    return Status::InvalidArgument("CrawlPlan requires a local table");
  }
  SC_RETURN_NOT_OK(local->schema().CheckFieldNames(options.local_text_fields));
  if ((options.policy == SelectionPolicy::kEstBiased ||
       options.policy == SelectionPolicy::kEstUnbiased) &&
      sample == nullptr) {
    return Status::InvalidArgument(
        "estimator policies require a hidden-database sample");
  }
  if (options.policy == SelectionPolicy::kIdeal && oracle == nullptr) {
    return Status::InvalidArgument("kIdeal requires oracle access");
  }
  if (options.er.mode == match::ErMode::kJaccard &&
      !match::IsValidJaccardThreshold(options.er.jaccard_threshold)) {
    return Status::InvalidArgument(
        "Jaccard ER threshold must be in (0, 1] (got " +
        std::to_string(options.er.jaccard_threshold) + ")");
  }
  // One authoritative thread knob: `num_threads` governs the whole build.
  // `pool.num_threads` survives as a checked alias (it used to be silently
  // overwritten) — a conflicting non-default value is a configuration bug.
  if (options.pool.num_threads != QueryPoolOptions{}.num_threads &&
      options.pool.num_threads != options.num_threads) {
    return Status::InvalidArgument(
        "conflicting thread knobs: SmartCrawlOptions::num_threads (" +
        std::to_string(options.num_threads) +
        ") is authoritative; leave pool.num_threads at its default or set "
        "both to the same value (got " +
        std::to_string(options.pool.num_threads) + ")");
  }
  std::unique_ptr<CrawlPlan> plan(new CrawlPlan());
  CrawlPlanBuilder builder(plan.get(), sample, oracle);
  builder.Run(local, std::move(options));
  return plan;
}

void CrawlPlanBuilder::Run(const table::Table* local,
                           SmartCrawlOptions options) {
  p_.local_ = local;
  p_.options_ = std::move(options);
  // The plan-level thread knob governs all build-phase parallelism. One
  // pool spans the whole build — query-pool generation (mining included)
  // and the estimator / oracle init below — so construction spawns one set
  // of workers, not one per stage.
  p_.options_.pool.num_threads = p_.options_.num_threads;
  util::ThreadPool build_pool(p_.options_.num_threads);
  p_.local_docs_ =
      local->BuildDocuments(p_.dict_, p_.options_.local_text_fields);
  p_.pool_ = GenerateQueryPool(p_.local_docs_, p_.dict_, p_.options_.pool,
                               &build_pool);

  // Forward index record -> queries (Figure 3(b)), frozen flat: each row
  // lists its queries in ascending q (fill order below), so the fan-out
  // walk in RemoveRecords is one contiguous scan.
  {
    index::CsrBuilder<index::QueryIdx> fwd(local->size());
    for (QueryIdx q = 0; q < p_.pool_.size(); ++q) {
      for (index::DocIndex d : p_.pool_.local_postings[q]) {
        fwd.ReserveEntry(d);
      }
    }
    fwd.StartFill();
    for (QueryIdx q = 0; q < p_.pool_.size(); ++q) {
      for (index::DocIndex d : p_.pool_.local_postings[q]) fwd.Push(d, q);
    }
    p_.forward_ = index::ForwardIndex(std::move(fwd).Build());
  }
  p_.build_kernel_stats_ = p_.pool_.kernel_stats;

  p_.er_index_ =
      CrawlPlan::BuildErIndex(p_.options_.er.mode, *local, p_.local_docs_);

  p_.freq_hs_.assign(p_.pool_.size(), 0);
  p_.inter_.assign(p_.pool_.size(), 0);
  if (p_.options_.policy == SelectionPolicy::kEstBiased ||
      p_.options_.policy == SelectionPolicy::kEstUnbiased) {
    InitSampleState(&build_pool);
  }
  if (p_.options_.policy == SelectionPolicy::kIdeal) {
    InitIdealState(&build_pool);
  }
}

void CrawlPlanBuilder::InitSampleState(util::ThreadPool* thread_pool) {
  assert(sample_ != nullptr &&
         "estimator policies require a hidden-database sample");
  p_.ctx_.k = 0;  // filled per session from the interface
  p_.ctx_.theta = sample_->theta;
  p_.ctx_.alpha = ComputeAlpha(sample_->theta, p_.local_->size(),
                               sample_->records.size());
  p_.ctx_.alpha_fallback = p_.options_.alpha_fallback;
  p_.ctx_.omega = p_.options_.omega;

  // Sample documents, interned into the plan dictionary so containment
  // checks against pool queries work directly.
  sample_docs_.reserve(sample_->records.size());
  for (const auto& rec : sample_->records.records()) {
    std::string textv = sample_->records.ConcatenatedText(rec.id);
    sample_docs_.push_back(text::Document::FromText(textv, p_.dict_));
  }

  util::ThreadPool& tp = *thread_pool;
  constexpr size_t kQueryGrain = 256;
  constexpr size_t kSampleGrain = 512;

  // |q(Hs)| for every pool query via an inverted index over the sample.
  // Reads are shared, writes are index-addressed, so the parallel loop is
  // bit-identical to the sequential one.
  index::InvertedIndex sample_index(sample_docs_, p_.dict_.size());
  std::span<uint32_t> freq_hs = p_.freq_hs_.mutable_span();
  tp.ParallelFor(0, p_.pool_.size(), kQueryGrain, [&](size_t q) {
    freq_hs[q] = static_cast<uint32_t>(
        sample_index.IntersectionSize(p_.pool_.queries[q].terms));
  });

  // Match D against Hs once (the crawler legitimately owns both) to get the
  // fuzzy intersection counts |q(D) ∩~ q(Hs)|. The record×sample matching
  // partitions the sample; per-chunk (local, s) pairs are concatenated in
  // chunk order, which preserves the sequential ascending-s order within
  // each record's match row. The pairs are collected flat and frozen into a
  // CSR block afterwards (push order per row = append order here).
  using MatchPair = std::pair<table::RecordId, uint32_t>;
  std::vector<MatchPair> match_pairs;
  auto append_pairs = [&](const std::vector<std::vector<MatchPair>>& chunks) {
    for (const auto& chunk : chunks) {
      for (const auto& p : chunk) match_pairs.push_back(p);
    }
  };
  switch (p_.options_.er.mode) {
    case match::ErMode::kEntityOracle:
    case match::ErMode::kExact: {
      append_pairs(tp.ParallelChunks(
          0, sample_->records.size(), kSampleGrain,
          [&](size_t lo, size_t hi) {
            std::vector<MatchPair> out;
            std::vector<table::RecordId> resolved;
            for (size_t s = lo; s < hi; ++s) {
              resolved.clear();
              p_.ResolveToLocal(sample_->records.record(s), &sample_docs_[s],
                                &resolved);
              for (table::RecordId d : resolved) {
                out.emplace_back(d, static_cast<uint32_t>(s));
              }
            }
            return out;
          }));
      break;
    }
    case match::ErMode::kJaccard: {
      // The prefix-filtered join emits exactly the nested-loop pair set in
      // (left, right) order; Build rejects thresholds outside (0, 1], the
      // join's precondition.
      auto pairs = match::PrefixFilterJaccardJoin(
          p_.local_docs_, sample_docs_, p_.options_.er.jaccard_threshold,
          p_.options_.num_threads);
      for (const auto& p : pairs) {
        match_pairs.emplace_back(p.left, p.right);
      }
      break;
    }
  }

  // Freeze record -> sample matches flat.
  {
    index::CsrBuilder<uint32_t> rsm(p_.local_->size());
    for (const auto& p : match_pairs) rsm.ReserveEntry(p.first);
    rsm.StartFill();
    for (const auto& p : match_pairs) rsm.Push(p.first, p.second);
    p_.record_sample_matches_ = std::move(rsm).Build();
  }

  // Precompute the estimator-delta adjacency: for every forward entry
  // i = (record d, query q), the number of d's sample matches containing
  // q's terms — exactly the inter_[q] contribution that disappears when d
  // is removed. This is the ContainsAll work RemoveRecords would otherwise
  // redo per removal, hoisted to init and evaluated once. Writes are
  // index-addressed, so the parallel loop is bit-identical to sequential.
  constexpr size_t kRecordGrain = 512;
  p_.forward_dec_.assign(p_.forward_.TotalEntries(), 0);
  std::span<uint32_t> forward_dec = p_.forward_dec_.mutable_span();
  std::span<const index::QueryIdx> fwd = p_.forward_.values();
  tp.ParallelFor(0, p_.local_->size(), kRecordGrain, [&](size_t d) {
    std::span<const uint32_t> matches = p_.record_sample_matches_[d];
    if (matches.empty()) return;
    auto [lo, hi] = p_.forward_.RowBounds(d);
    for (size_t i = lo; i < hi; ++i) {
      const auto& terms = p_.pool_.queries[fwd[i]].terms;
      uint32_t dec = 0;
      for (uint32_t s : matches) {
        if (sample_docs_[s].ContainsAll(terms)) ++dec;
      }
      forward_dec[i] = dec;
    }
  });

  // inter_[q] = sum of q's column of the adjacency (equal to the old
  // per-query ContainsAll double loop — same pairs, same counts).
  std::span<uint32_t> inter = p_.inter_.mutable_span();
  for (size_t i = 0; i < forward_dec.size(); ++i) {
    inter[fwd[i]] += forward_dec[i];
  }

  p_.build_kernel_stats_ += sample_index.kernel_stats();
}

void CrawlPlanBuilder::InitIdealState(util::ThreadPool* thread_pool) {
  assert(oracle_ != nullptr && "kIdeal requires oracle access");
  // One task per query: the oracle's exact top-k page, matched against all
  // of D (an empty removed bitmap) on frozen documents, as sessions match
  // pages. Writes are index-addressed, so the covers are identical at any
  // thread count. They are then frozen into a flat forward CSR (record ->
  // covering queries, ascending q per row — the fill order).
  p_.cover_count_.assign(p_.pool_.size(), 0);
  std::span<uint32_t> cover_count = p_.cover_count_.mutable_span();
  std::vector<std::vector<table::RecordId>> covered_per_q(p_.pool_.size());
  constexpr size_t kIdealGrain = 16;
  thread_pool->ParallelFor(0, p_.pool_.size(), kIdealGrain, [&](size_t q) {
    std::vector<table::Record> page;
    for (table::RecordId id :
         oracle_->OracleTopK(p_.pool_.queries[q].keywords)) {
      page.push_back(oracle_->OracleTable().record(id));
    }
    covered_per_q[q] =
        p_.MatchPage(static_cast<QueryIdx>(q), page, /*removed=*/{});
    cover_count[q] = static_cast<uint32_t>(covered_per_q[q].size());
  });
  index::CsrBuilder<index::QueryIdx> cf(p_.local_->size());
  for (QueryIdx q = 0; q < p_.pool_.size(); ++q) {
    for (table::RecordId d : covered_per_q[q]) cf.ReserveEntry(d);
  }
  cf.StartFill();
  for (QueryIdx q = 0; q < p_.pool_.size(); ++q) {
    for (table::RecordId d : covered_per_q[q]) cf.Push(d, q);
  }
  p_.cover_forward_ = index::ForwardIndex(std::move(cf).Build());
}

CrawlPlan::ErIndex CrawlPlan::BuildErIndex(
    match::ErMode mode, const table::Table& local,
    std::span<const text::Document> local_docs) {
  ErIndex index;
  switch (mode) {
    case match::ErMode::kEntityOracle:
      for (const table::Record& rec : local.records()) {
        if (rec.entity_id != table::kUnknownEntity) {
          index.entity_to_local.emplace(rec.entity_id, rec.id);
        }
      }
      break;
    case match::ErMode::kExact:
      for (const table::Record& rec : local.records()) {
        index.doc_hash_to_local[HashVector(local_docs[rec.id].terms())]
            .push_back(rec.id);
      }
      break;
    case match::ErMode::kJaccard:
      break;
  }
  return index;
}

void CrawlPlan::ResolveToLocal(const table::Record& rec,
                               const text::Document* doc,
                               std::vector<table::RecordId>* out) const {
  if (options_.er.mode == match::ErMode::kEntityOracle) {
    auto it = er_index_.entity_to_local.find(rec.entity_id);
    if (it != er_index_.entity_to_local.end()) out->push_back(it->second);
    return;
  }
  assert(options_.er.mode == match::ErMode::kExact && doc != nullptr);
  auto it = er_index_.doc_hash_to_local.find(HashVector(doc->terms()));
  if (it == er_index_.doc_hash_to_local.end()) return;
  for (table::RecordId d : it->second) {
    if (local_docs_[d] == *doc) out->push_back(d);
  }
}

std::vector<text::Document> CrawlPlan::BuildPageDocuments(
    const std::vector<table::Record>& page, text::TermDictionary* dict) {
  std::vector<text::Document> docs;
  docs.reserve(page.size());
  for (const auto& rec : page) {
    docs.push_back(text::Document::FromFields(rec.fields, *dict));
  }
  return docs;
}

std::vector<text::Document> CrawlPlan::FrozenPageDocuments(
    const std::vector<table::Record>& page) const {
  std::vector<text::Document> docs;
  docs.reserve(page.size());
  for (const auto& rec : page) {
    docs.push_back(
        text::Document::FromTokensFrozen(text::TokenSet(rec.fields), dict_));
  }
  return docs;
}

std::vector<table::RecordId> CrawlPlan::MatchPage(
    QueryIdx q, const std::vector<table::Record>& page,
    std::span<const uint8_t> removed) const {
  if (!needs_page_documents()) {
    return MatchPreparedPage(q, page, nullptr, removed);
  }
  const std::vector<text::Document> docs = FrozenPageDocuments(page);
  return MatchPreparedPage(q, page, &docs, removed);
}

std::vector<table::RecordId> CrawlPlan::ActivePostings(
    QueryIdx q, std::span<const uint8_t> removed) const {
  std::vector<table::RecordId> out;
  out.reserve(pool_.local_postings[q].size());
  for (index::DocIndex d : pool_.local_postings[q]) {
    if (!removed[d]) out.push_back(d);
  }
  return out;
}

std::vector<table::RecordId> CrawlPlan::MatchPreparedPage(
    QueryIdx q, const std::vector<table::Record>& page,
    const std::vector<text::Document>* page_docs,
    std::span<const uint8_t> removed) const {
  // An empty removed bitmap means "match against all of D" (the Build-time
  // oracle pass); a session bitmap restricts matches to active records.
  const bool active_only = !removed.empty();
  std::vector<table::RecordId> matched;
  switch (options_.er.mode) {
    case match::ErMode::kEntityOracle:
    case match::ErMode::kExact: {
      for (size_t i = 0; i < page.size(); ++i) {
        ResolveToLocal(page[i],
                       page_docs == nullptr ? nullptr : &(*page_docs)[i],
                       &matched);
      }
      break;
    }
    case match::ErMode::kJaccard: {
      // Sec. 6.1: similarity join between q(D) and the returned page,
      // reading each candidate's local document in place. A candidate
      // matches once any page record passes the join's pair predicate.
      const double threshold = options_.er.jaccard_threshold;
      for (index::DocIndex d : pool_.local_postings[q]) {
        if (active_only && removed[d]) continue;
        for (const text::Document& doc : *page_docs) {
          if (match::JaccardPairSimilarity(local_docs_[d], doc, threshold)) {
            matched.push_back(d);
            break;
          }
        }
      }
      break;
    }
  }
  if (active_only) {
    matched.erase(std::remove_if(matched.begin(), matched.end(),
                                 [removed](table::RecordId d) {
                                   return removed[d] != 0;
                                 }),
                  matched.end());
  }
  std::sort(matched.begin(), matched.end());
  matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
  return matched;
}

}  // namespace smartcrawl::core
