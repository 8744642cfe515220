#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/dictionary.h"
#include "text/token_set.h"
#include "text/tokenizer.h"

/// \file document.h
/// The document model of Definition 1: each record, concatenating its
/// (indexed) attributes, becomes a set of keywords.
///
/// A Document stores the *sorted, de-duplicated* TermIds of a record.
/// Sortedness enables O(|a|+|b|) set operations and binary-search
/// containment tests used throughout query evaluation.

namespace smartcrawl::text {

class Document {
 public:
  Document() = default;
  /// Takes an arbitrary term sequence; sorts and de-duplicates it.
  explicit Document(std::vector<TermId> terms);

  /// Builds a document from raw text through `dict` (interning new terms).
  static Document FromText(std::string_view textv, TermDictionary& dict,
                           const TokenizerOptions& options = {});

  /// FromText over a record's fields, tokenized one after another
  /// (ForEachFieldToken): the same document as FromText over the fields
  /// joined by single spaces, interning terms in the same order.
  static Document FromFields(std::span<const std::string> fields,
                             TermDictionary& dict,
                             const TokenizerOptions& options = {});

  /// Builds a document from a record's distinct tokens WITHOUT extending
  /// the dictionary: one hashed probe per token. Each unseen token gets an
  /// overflow id >= dict.size(), so it still counts toward size() — and
  /// thus every Jaccard denominator — exactly as if it had been interned,
  /// yet it can never equal a term of a document built over `dict`.
  /// Overflow ids are local to the returned document: the same unseen
  /// token may get different ids in two calls.
  static Document FromTokensFrozen(const TokenSet& tokens,
                                   const TermDictionary& dict);

  /// Adopts `terms` verbatim — the caller guarantees they are already
  /// sorted ascending and unique (e.g. read back from a snapshot, where
  /// they were written from a Document). Skips the sort/dedup pass.
  static Document FromSortedUnique(std::vector<TermId> terms) {
    Document d;
    d.terms_ = std::move(terms);
    return d;
  }

  const std::vector<TermId>& terms() const { return terms_; }
  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// True if this document contains `term`.
  bool Contains(TermId term) const;

  /// True if this document contains every term in `query_terms`
  /// (`query_terms` must be sorted ascending). This is the conjunctive
  /// "record satisfies query" predicate of Definition 1.
  bool ContainsAll(const std::vector<TermId>& query_terms) const;

  /// Number of terms shared with `other` (set intersection size).
  size_t IntersectionSize(const Document& other) const;

  /// Jaccard similarity |a ∩ b| / |a ∪ b|; 1.0 when both are empty.
  double Jaccard(const Document& other) const;

  bool operator==(const Document& other) const {
    return terms_ == other.terms_;
  }

 private:
  std::vector<TermId> terms_;  // sorted ascending, unique
};

}  // namespace smartcrawl::text
