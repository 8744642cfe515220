#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "hidden/ranker.h"
#include "hidden/search_interface.h"
#include "index/inverted_index.h"
#include "table/table.h"
#include "text/dictionary.h"
#include "text/document.h"
#include "text/tokenizer.h"

/// \file hidden_database.h
/// The hidden database simulator: a full keyword-search engine over an
/// in-memory table, exposing only the restrictive interface of Definition 2.
///
/// Retrieval modes:
///  * kConjunctive — return only records containing ALL query keywords
///    (the paper's primary model, matching IMDb / ACM DL / GoodReads /
///    SoundCloud);
///  * kDisjunctive — candidate set is records containing ANY keyword,
///    ranked by relevance (Yelp-like; records with all keywords rank top).
///
/// The engine applies the same tokenizer policy to its own records and to
/// incoming queries (lowercase, stop-word removal). Query processing is
/// deterministic.

namespace smartcrawl::hidden {

struct HiddenDatabaseOptions {
  /// Result-page limit k (Definition 2). Publicly documented by real APIs
  /// (Yelp k=50, Google k=100, ...), so it is exposed via top_k().
  size_t top_k = 100;

  enum class Mode {
    /// Return only records containing ALL query keywords (IMDb/ACM-DL).
    kConjunctive,
    /// Candidates contain ANY keyword; relevance-ranked (pure OR search).
    kDisjunctive,
    /// Candidates must contain at least ceil(min_match_fraction * #query
    /// keywords) of the keywords, relevance-ranked. Models Yelp-like
    /// engines: not strictly conjunctive, but a query polluted with a junk
    /// keyword misses records lacking it. Keywords the engine has never
    /// indexed count as unmatched.
    kSemiConjunctive,
  };
  Mode mode = Mode::kConjunctive;
  /// Only used by kSemiConjunctive.
  double min_match_fraction = 0.75;

  /// Which attributes the search engine indexes (empty = all). Mirrors real
  /// sites that do not index e.g. rating or zip-code attributes
  /// (Definition 1, footnote 4).
  std::vector<std::string> indexed_fields;

  text::TokenizerOptions tokenizer;
};

class HiddenDatabase : public KeywordSearchInterface {
 public:
  /// Builds the engine: tokenizes records, constructs the inverted index.
  /// `ranker_factory` receives the engine's documents and must return the
  /// ranking function; pass nullptr to get a HashRanker(seed 0).
  HiddenDatabase(table::Table records, HiddenDatabaseOptions options,
                 std::unique_ptr<Ranker> ranker = nullptr);

  // --- The restrictive public interface (what crawlers see) ---------------

  Result<PageRef> SearchPage(
      const std::vector<std::string>& keywords) override;
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  size_t top_k() const override { return options_.top_k; }
  size_t num_queries_issued() const override { return num_queries_; }

  // --- Evaluation-only backdoors (never used by crawlers) -----------------
  // These exist because the database is simulated: the experiment harness
  // needs ground truth (true benefits for QSEL-IDEAL, coverage/recall
  // metrics, |q(H)| for estimator accuracy checks).

  /// Number of records in H (unknown to crawlers).
  size_t OracleSize() const { return records_.size(); }

  /// The full (un-truncated) q(H) match set for a query.
  std::vector<table::RecordId> OracleMatches(
      const std::vector<std::string>& keywords) const;

  /// The exact top-k page a Search would return, without counting a query.
  std::vector<table::RecordId> OracleTopK(
      const std::vector<std::string>& keywords) const;

  /// |q(H)| without issuing a query.
  size_t OracleFrequency(const std::vector<std::string>& keywords) const;

  const table::Table& OracleTable() const { return records_; }
  const std::vector<text::Document>& OracleDocuments() const { return docs_; }
  const text::TermDictionary& OracleDictionary() const { return dict_; }

  /// Resets the issued-query counter (between experiment arms).
  void ResetQueryCounter() { num_queries_ = 0; }

  /// Installs a different ranker (e.g. to study ranking sensitivity).
  void SetRanker(std::unique_ptr<Ranker> ranker);

 private:
  /// Tokenizes query keywords with the engine's policy and maps them into
  /// the engine dictionary. Terms unknown to the engine are represented as
  /// `unmatchable` (the query then matches nothing under conjunctive mode).
  struct ParsedQuery {
    std::vector<text::TermId> terms;  // known terms, sorted unique
    size_t num_unknown = 0;           // keywords not in the engine dictionary
    bool empty() const { return terms.empty() && num_unknown == 0; }
  };
  ParsedQuery ParseQuery(const std::vector<std::string>& keywords) const;

  std::vector<table::RecordId> EvaluateTopK(const ParsedQuery& q) const;
  std::vector<table::RecordId> EvaluateMatches(const ParsedQuery& q) const;

  table::Table records_;
  HiddenDatabaseOptions options_;
  text::TermDictionary dict_;
  std::vector<text::Document> docs_;
  index::InvertedIndex index_;
  std::unique_ptr<Ranker> ranker_;
  /// Atomic so concurrent experiment arms may Search the shared database;
  /// Search is otherwise logically const. Under concurrent arms the shared
  /// lifetime counter is still only an aggregate — per-arm accounting lives
  /// in each arm's BudgetedInterface.
  std::atomic<size_t> num_queries_{0};
};

/// Convenience: builds a StaticScoreRanker over a numeric field of `t`
/// (e.g. "year"); records with unparsable values score lowest.
std::unique_ptr<Ranker> MakeFieldRanker(const table::Table& t,
                                        const std::string& field_name);

}  // namespace smartcrawl::hidden
