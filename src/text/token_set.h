#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"

/// \file token_set.h
/// The distinct tokens of one record, ready to probe any dictionary.
///
/// Tokenizing a record depends only on its text and the TokenizerOptions,
/// never on a dictionary; only the term-id probe does. A TokenSet is that
/// dictionary-free half, kept as a value: each distinct token once, in
/// hash order, with its TermDictionary::Hash, so turning it into a document
/// over a frozen dictionary (Document::FromTokensFrozen) is one hashed
/// probe per token. core::PageMatchMemo caches one per hidden record for a
/// whole fleet run and reuses it for every plan.

namespace smartcrawl::text {

class TokenSet {
 public:
  struct Token {
    std::string_view text;  // into the set's own arena
    uint64_t hash;          // TermDictionary::Hash(text)
  };

  /// The distinct tokens of a record's fields (ForEachFieldToken).
  explicit TokenSet(std::span<const std::string> fields,
                    const TokenizerOptions& options = {});
  /// The distinct tokens of `textv` (ForEachToken).
  explicit TokenSet(std::string_view textv,
                    const TokenizerOptions& options = {});

  std::span<const Token> tokens() const { return tokens_; }
  size_t size() const { return tokens_.size(); }

 private:
  std::unique_ptr<char[]> arena_;  // the distinct tokens back to back
  std::vector<Token> tokens_;
};

}  // namespace smartcrawl::text
