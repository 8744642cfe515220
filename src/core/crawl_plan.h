#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "core/query_pool.h"
#include "hidden/hidden_database.h"
#include "index/csr.h"
#include "index/forward_index.h"
#include "match/er_config.h"
#include "sample/sampler.h"
#include "table/table.h"
#include "text/dictionary.h"
#include "text/document.h"
#include "util/mmap_file.h"
#include "util/result.h"

/// \file crawl_plan.h
/// The immutable per-dataset half of the SMARTCRAWL engine.
///
/// Everything the engine builds ONCE per (local table, options, sample,
/// oracle) tuple — documents, the query pool, the CSR forward indexes, the
/// sample-matching state and the estimator-delta adjacency — lives here,
/// frozen after Build(). A plan carries no crawl state whatsoever: any
/// number of core::CrawlSession instances can read one plan concurrently
/// (from any thread) while each session keeps its own mutable frequencies,
/// coverage bitmaps and priority queue. This split is what makes a
/// multi-tenant crawl service affordable — tenants share the O(|D| · pool)
/// build and pay only an O(plan size) copy per session (see
/// core::CrawlService and docs/architecture.md).
///
/// Immutability is enforced three ways: all public accessors are const (and
/// hand out const spans/references into the frozen storage), the only
/// mutating code path is the private builder used by Build(), and the
/// sc-plan-mutation lint rule rejects any non-const member creeping into
/// the class (see docs/static-analysis.md).

namespace smartcrawl::core {

class CrawlPlanBuilder;

/// Liveness epsilon for the estimator policies: a query whose estimate is
/// exactly 0 but which still matches uncovered records stays selectable
/// (the paper's SMARTCRAWL-U keeps issuing such tied queries under sparse
/// samples). Added in CrawlSession::PriorityOf, stripped again when logging
/// the raw estimate — one constant so the two sides cannot drift.
inline constexpr double kLivenessEpsilon = 1e-9;

enum class SelectionPolicy {
  kSimple,
  kBound,
  kEstBiased,
  kEstUnbiased,
  kIdeal,
};

/// Short stable display name ("QSel-Simple", "SmartCrawl-B", ...).
std::string PolicyName(SelectionPolicy policy);

struct SmartCrawlOptions {
  SelectionPolicy policy = SelectionPolicy::kEstBiased;
  QueryPoolOptions pool;

  /// Fields of the local table used to build crawler-side documents and
  /// queries (empty = all fields).
  std::vector<std::string> local_text_fields;

  /// How returned/sampled hidden records are matched to local records (the
  /// entity-resolution black box of Sec. 2). Shared with core::EnrichTable
  /// so crawling and enrichment agree on what "the same entity" means.
  /// Defaults to the paper's evaluation setting (perfect ER via
  /// ground-truth ids).
  match::ErConfig er;

  /// Worker threads for crawler-side precomputation (pool generation and
  /// the sample-matching init): 0 = hardware concurrency, 1 = sequential.
  /// Parallel runs are bit-identical to sequential ones.
  ///
  /// This is THE thread knob for the whole build: `pool.num_threads` is a
  /// checked alias — leave it at its default and this value governs pool
  /// generation too, or set both to the same value; conflicting non-default
  /// values are an InvalidArgument at Build()/Create() time.
  unsigned num_threads = 1;

  /// Sec. 4.2 ΔD mitigation (only sound under conjunctive search).
  bool remove_unmatched_solid = true;

  /// Sec. 6.2 α fallback for queries absent from the sample.
  bool alpha_fallback = true;

  /// Sec. 5.3 odds ratio ω (1.0 = the paper's random-sample assumption;
  /// see EstimatorContext::omega).
  double omega = 1.0;

  /// Stop as soon as the best estimated benefit reaches 0 (no remaining
  /// query matches any uncovered record).
  bool stop_on_zero_benefit = true;

  /// Retain the crawled hidden records in the result (for enrichment).
  bool keep_crawled_records = false;
};

class CrawlPlan {
 public:
  /// Builds a plan: validates the configuration, then runs the heavy
  /// construction work (documents, query pool, indices, sample matching).
  /// Configuration errors — a missing sample for the kEst* policies, a
  /// missing oracle for kIdeal, conflicting thread knobs — surface here,
  /// at the call site, before any heavy work happens.
  ///
  /// \param local the local database D (must outlive the plan)
  /// \param options crawl configuration
  /// \param sample hidden-database sample (required for kEst* policies;
  ///        only read during Build, need not outlive the plan)
  /// \param oracle the hidden database itself (required for kIdeal only;
  ///        only read during Build, need not outlive the plan)
  static Result<std::unique_ptr<CrawlPlan>> Build(
      const table::Table* local, SmartCrawlOptions options,
      const sample::HiddenSample* sample = nullptr,
      const hidden::HiddenDatabase* oracle = nullptr);

  /// Writes every built artifact into one versioned snapshot file (see
  /// docs/architecture.md §7 and src/snapshot/format.h for the format
  /// contract). A later LoadSnapshot serves the flat hot-path artifacts
  /// straight from the mmap'ed file — build once, load many.
  [[nodiscard]] Status Serialize(const std::string& path) const;

  /// Loads a plan from a snapshot written by Serialize. Flat artifacts
  /// (CSR indexes, freq/inter/delta arrays) become zero-copy borrowed
  /// views into the mapping; object state (dictionary, documents, query
  /// keywords, the local table, ER maps) is materialized from the
  /// snapshot's string/term arenas. The loaded plan owns its local table
  /// copy and keeps the mapping alive; crawls over it are bit-identical
  /// to crawls over the freshly built plan (pinned by the golden suite).
  /// Corrupted, truncated or version-mismatched files are rejected with a
  /// descriptive Status — never UB.
  static Result<std::unique_ptr<CrawlPlan>> LoadSnapshot(
      const std::string& path);

  /// Same, but additionally rejects (FailedPrecondition) a snapshot whose
  /// recorded build fingerprint does not match BuildFingerprint(
  /// *expected_local, expected_options) — the guard callers use when they
  /// know which dataset/config the snapshot must have been built from.
  static Result<std::unique_ptr<CrawlPlan>> LoadSnapshot(
      const std::string& path, const table::Table* expected_local,
      const SmartCrawlOptions& expected_options);

  /// Stable content fingerprint of a (dataset, options) build input pair,
  /// recorded in the snapshot header. Thread-count knobs are excluded:
  /// built artifacts are bit-identical at any thread count by contract.
  static uint64_t BuildFingerprint(const table::Table& local,
                                   const SmartCrawlOptions& options);

  CrawlPlan(const CrawlPlan&) = delete;
  CrawlPlan& operator=(const CrawlPlan&) = delete;

  /// The local database D the plan was built over.
  const table::Table& local() const { return *local_; }
  size_t num_records() const { return local_->size(); }

  const SmartCrawlOptions& options() const { return options_; }

  /// The frozen crawler-side dictionary (local + sample terms). Page
  /// documents are built against it read-only (FrozenPageDocuments).
  const text::TermDictionary& dict() const { return dict_; }

  /// One document per local record, over dict().
  std::span<const text::Document> local_docs() const { return local_docs_; }

  /// The generated query pool.
  const QueryPool& pool() const { return pool_; }

  /// Forward index record -> queries with d ∈ q(D) (Figure 3(b)).
  const index::ForwardIndex& forward() const { return forward_; }

  /// Static |q(Hs)| per query (zeros for non-estimator policies).
  std::span<const uint32_t> freq_hs() const { return freq_hs_.span(); }

  /// Initial |q(D)| per query — the session's freq_d_ starting point.
  std::span<const uint32_t> initial_freq_d() const {
    return pool_.local_frequency;
  }

  /// Initial |q(D) ∩~ q(Hs)| per query (zeros for non-estimator policies).
  std::span<const uint32_t> initial_inter() const { return inter_.span(); }

  /// Estimator-delta adjacency, index-aligned with forward().values():
  /// entry i (the pair record d -> query q) holds |{sample matches s of d :
  /// s contains q's terms}| — the amount inter[q] drops when d is removed.
  /// Empty for non-estimator policies.
  std::span<const uint32_t> forward_dec() const {
    return forward_dec_.span();
  }

  /// record -> its sample matches, flat CSR.
  const index::Csr<uint32_t>& record_sample_matches() const {
    return record_sample_matches_;
  }

  /// Oracle state (kIdeal): record -> covering queries, and the initial
  /// per-query true cover counts. Empty for other policies.
  const index::ForwardIndex& cover_forward() const { return cover_forward_; }
  std::span<const uint32_t> initial_cover_count() const {
    return cover_count_.span();
  }

  /// Construction-time kernel mix (pool build + sample |q(Hs)| pass).
  const index::KernelStats& build_kernel_stats() const {
    return build_kernel_stats_;
  }

  /// Estimator-context template (θ, α, ω); k is 0 — each session fills it
  /// from its interface's top-k.
  const EstimatorContext& estimator_context() const { return ctx_; }

  /// True when page matching needs page text interned as documents (every
  /// ER mode except the entity oracle, which only looks at entity ids).
  bool needs_page_documents() const {
    return options_.er.mode != match::ErMode::kEntityOracle;
  }

  /// Interns one document per page record (its fields tokenized in order,
  /// text::Document::FromFields) into `dict`. Matches exactly like
  /// FrozenPageDocuments, which sessions use; this dictionary-mutating form
  /// remains for callers that keep their own growing dictionary.
  static std::vector<text::Document> BuildPageDocuments(
      const std::vector<table::Record>& page, text::TermDictionary* dict);

  /// One document per page record over the frozen dict(), each built from
  /// the record's text::TokenSet by text::Document::FromTokensFrozen:
  /// every distinct unknown token counts with an overflow id >=
  /// dict().size(). Unknown terms never occur in local_docs(), so document
  /// sizes, Jaccard scores and exact-match equality against local records
  /// are the same as with BuildPageDocuments — but the result is a pure
  /// function of (plan, page). core::PageMatchMemo builds the same
  /// documents from token sets it caches per record.
  std::vector<text::Document> FrozenPageDocuments(
      const std::vector<table::Record>& page) const;

  /// The read-only half of page matching: matches a page whose documents
  /// were already built (`page_docs` may be null for the entity-oracle
  /// mode, which never looks at text) against the plan's local records.
  /// `removed` is the caller's session-local removed bitmap; an EMPTY span
  /// matches against all of D (Build-time oracle covers, the page memo).
  /// Const and session-state-free, so it can run on worker threads.
  std::vector<table::RecordId> MatchPreparedPage(
      QueryIdx q, const std::vector<table::Record>& page,
      const std::vector<text::Document>* page_docs,
      std::span<const uint8_t> removed) const;

  /// Both halves in one call: FrozenPageDocuments (when the ER mode reads
  /// text), then MatchPreparedPage. Const and pure, like its parts.
  std::vector<table::RecordId> MatchPage(
      QueryIdx q, const std::vector<table::Record>& page,
      std::span<const uint8_t> removed) const;

  /// Current q(D) under the caller's removed bitmap: the still-active
  /// subset of the query's posting list.
  std::vector<table::RecordId> ActivePostings(
      QueryIdx q, std::span<const uint8_t> removed) const;

 private:
  CrawlPlan() = default;
  friend class CrawlPlanBuilder;
  /// The snapshot loader (crawl_plan_snapshot.cc) — the second sanctioned
  /// writer: it hydrates a fresh plan from a snapshot file instead of
  /// running the build.
  friend class CrawlPlanSnapshotIo;

  // Construction inputs.
  const table::Table* local_ = nullptr;
  SmartCrawlOptions options_;

  // Crawler-side text state.
  text::TermDictionary dict_;
  std::vector<text::Document> local_docs_;

  // Pool and static statistics. The flat u32 arrays are FlatArrays so the
  // snapshot loader can install zero-copy borrowed views where the
  // builder fills owned storage (index/csr.h).
  QueryPool pool_;
  index::ForwardIndex forward_;  // record -> queries with d ∈ q(D)
  index::FlatArray<uint32_t> freq_hs_;  // static |q(Hs)|
  index::FlatArray<uint32_t> inter_;    // initial |q(D) ∩~ q(Hs)|
  EstimatorContext ctx_;                // k = 0 template

  // Sample-side state (kEst*).
  index::Csr<uint32_t> record_sample_matches_;
  index::FlatArray<uint32_t> forward_dec_;
  index::KernelStats build_kernel_stats_;

  // Oracle state (kIdeal).
  index::ForwardIndex cover_forward_;
  index::FlatArray<uint32_t> cover_count_;

  // Entity-resolution helpers.
  std::unordered_map<table::EntityId, table::RecordId> entity_to_local_;
  std::unordered_map<size_t, std::vector<table::RecordId>> doc_hash_to_local_;

  // Snapshot-loaded plans own their reconstructed local table (local_
  // points at it) and keep the mapped file region alive for the borrowed
  // views above. Both stay null on the Build() path.
  std::unique_ptr<table::Table> owned_local_;
  std::shared_ptr<util::MmapFile> snapshot_region_;
};

}  // namespace smartcrawl::core
