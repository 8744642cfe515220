#include "core/crawl_plan.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "index/inverted_index.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "text/token_set.h"
#include "util/hash.h"
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
/// against a freshly allocated plan, then hands it over frozen. Everything
/// here is a verbatim port of the former SmartCrawler constructor /
/// InitSampleState / InitIdealState — same parallel grains, same fill
/// orders, same sequential interning order — so crawls over the split
/// engine stay bit-identical to the fused one (pinned by the golden suite).
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

  // ER helper maps.
  for (const auto& rec : local->records()) {
    if (rec.entity_id != table::kUnknownEntity) {
      p_.entity_to_local_.emplace(rec.entity_id, rec.id);
    }
    p_.doc_hash_to_local_[HashVector(p_.local_docs_[rec.id].terms())]
        .push_back(rec.id);
  }

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
  tp.ParallelFor(0, p_.pool_.size(), kQueryGrain, [&](size_t q) {
    p_.freq_hs_[q] = static_cast<uint32_t>(
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
    case match::ErMode::kEntityOracle: {
      append_pairs(tp.ParallelChunks(
          0, sample_->records.size(), kSampleGrain,
          [&](size_t lo, size_t hi) {
            std::vector<MatchPair> out;
            for (size_t s = lo; s < hi; ++s) {
              const auto& rec = sample_->records.record(s);
              auto it = p_.entity_to_local_.find(rec.entity_id);
              if (it != p_.entity_to_local_.end()) {
                out.emplace_back(it->second, static_cast<uint32_t>(s));
              }
            }
            return out;
          }));
      break;
    }
    case match::ErMode::kExact: {
      append_pairs(tp.ParallelChunks(
          0, sample_->records.size(), kSampleGrain,
          [&](size_t lo, size_t hi) {
            std::vector<MatchPair> out;
            for (size_t s = lo; s < hi; ++s) {
              auto it = p_.doc_hash_to_local_.find(
                  HashVector(sample_docs_[s].terms()));
              if (it == p_.doc_hash_to_local_.end()) continue;
              for (table::RecordId d : it->second) {
                if (p_.local_docs_[d] == sample_docs_[s]) {
                  out.emplace_back(d, static_cast<uint32_t>(s));
                }
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
      p_.forward_dec_[i] = dec;
    }
  });

  // inter_[q] = sum of q's column of the adjacency (equal to the old
  // per-query ContainsAll double loop — same pairs, same counts).
  for (size_t i = 0; i < p_.forward_dec_.size(); ++i) {
    p_.inter_[fwd[i]] += p_.forward_dec_[i];
  }

  p_.build_kernel_stats_ += sample_index.kernel_stats();
}

void CrawlPlanBuilder::InitIdealState(util::ThreadPool* thread_pool) {
  assert(oracle_ != nullptr && "kIdeal requires oracle access");
  util::ThreadPool& tp = *thread_pool;
  p_.cover_count_.assign(p_.pool_.size(), 0);
  // Oracle covers are computed per query, then frozen into a flat forward
  // CSR (record -> covering queries, ascending q per row — the fill order).
  //
  // The per-query work runs in three stages per block of queries: (1) the
  // oracle top-k fetches, parallel — OracleTopK is read-only; (2) page
  // document interning, sequential — it mutates the plan dictionary, and
  // running it in ascending (q, record) order keeps the dictionary
  // bit-identical to the old fully-sequential loop at any thread count;
  // (3) page matching via the const MatchPreparedPage, parallel — all
  // writes index-addressed. Blocks bound the resident page copies to
  // kIdealBlock queries.
  std::vector<std::vector<table::RecordId>> covered_per_q(p_.pool_.size());
  const bool need_docs = p_.needs_page_documents();
  constexpr size_t kIdealBlock = 2048;
  constexpr size_t kIdealGrain = 16;
  for (size_t block = 0; block < p_.pool_.size(); block += kIdealBlock) {
    const size_t block_end = std::min(p_.pool_.size(), block + kIdealBlock);
    std::vector<std::vector<table::Record>> pages(block_end - block);
    tp.ParallelFor(block, block_end, kIdealGrain, [&](size_t q) {
      std::vector<table::RecordId> top =
          oracle_->OracleTopK(p_.pool_.queries[q].keywords);
      std::vector<table::Record>& page = pages[q - block];
      page.reserve(top.size());
      for (table::RecordId id : top) {
        page.push_back(oracle_->OracleTable().record(id));
      }
    });
    std::vector<std::vector<text::Document>> page_docs(
        need_docs ? pages.size() : 0);
    if (need_docs) {
      for (size_t i = 0; i < pages.size(); ++i) {
        page_docs[i] = CrawlPlan::BuildPageDocuments(pages[i], &p_.dict_);
      }
    }
    tp.ParallelFor(block, block_end, kIdealGrain, [&](size_t q) {
      std::vector<table::RecordId> covered = p_.MatchPreparedPage(
          static_cast<QueryIdx>(q), pages[q - block],
          need_docs ? &page_docs[q - block] : nullptr,
          /*removed=*/{});
      p_.cover_count_[q] = static_cast<uint32_t>(covered.size());
      covered_per_q[q] = std::move(covered);
    });
  }
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
    case match::ErMode::kEntityOracle: {
      for (const auto& rec : page) {
        auto it = entity_to_local_.find(rec.entity_id);
        if (it != entity_to_local_.end()) matched.push_back(it->second);
      }
      break;
    }
    case match::ErMode::kExact: {
      for (const text::Document& doc : *page_docs) {
        auto it = doc_hash_to_local_.find(HashVector(doc.terms()));
        if (it == doc_hash_to_local_.end()) continue;
        for (table::RecordId d : it->second) {
          if (local_docs_[d] == doc) matched.push_back(d);
        }
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
