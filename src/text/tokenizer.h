#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/stopwords.h"

/// \file tokenizer.h
/// Record-text tokenization shared by the local-database indexer, the
/// hidden-database simulator, and query-pool generation.
///
/// Both sides of the matching problem MUST use the same tokenizer: the
/// conjunctive keyword-search semantics of Definition 1 ("document(h)
/// contains all the keywords in the query") are defined at the token level.

namespace smartcrawl::text {

struct TokenizerOptions {
  /// Lower-case all tokens.
  bool lowercase = true;
  /// Drop tokens in the default stop-word list (applied after lowercasing).
  bool remove_stopwords = true;
  /// Drop tokens shorter than this many characters.
  size_t min_token_length = 1;
  /// Treat digits as token characters (e.g. keep "2019").
  bool keep_digits = true;
};

namespace tokenizer_internal {

// The program never leaves the "C" locale, where the letters and digits of
// <cctype> are exactly the ASCII ones; these spell that out without a
// library call per byte.
inline bool IsAsciiUpper(char c) {
  return static_cast<unsigned char>(c - 'A') < 26;
}
inline bool IsAsciiLetter(char c) {
  return static_cast<unsigned char>((c | 0x20) - 'a') < 26;
}
inline bool IsAsciiDigit(char c) {
  return static_cast<unsigned char>(c - '0') < 10;
}

}  // namespace tokenizer_internal

/// The tokenizer: splits `textv` on any non-alphanumeric character, applies
/// the options above, and calls `emit(token)` with each token in order,
/// duplicates included. `token` is a std::string_view valid only during the
/// call, so a caller that interns or hashes tokens builds no string.
template <typename Emit>
void ForEachToken(std::string_view textv, const TokenizerOptions& options,
                  Emit&& emit) {
  using tokenizer_internal::IsAsciiDigit;
  using tokenizer_internal::IsAsciiLetter;
  using tokenizer_internal::IsAsciiUpper;
  auto is_token_char = [&](char c) {
    return IsAsciiLetter(c) || (options.keep_digits && IsAsciiDigit(c));
  };
  std::string lowered;  // a token with upper-case letters, lower-cased
  const size_t n = textv.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !is_token_char(textv[i])) ++i;
    const size_t start = i;
    bool has_upper = false;
    for (; i < n && is_token_char(textv[i]); ++i) {
      has_upper = has_upper || IsAsciiUpper(textv[i]);
    }
    if (i == start || i - start < options.min_token_length) continue;
    std::string_view token = textv.substr(start, i - start);
    if (options.lowercase && has_upper) {
      lowered.assign(token);
      for (char& c : lowered) {
        if (IsAsciiUpper(c)) c = static_cast<char>(c | 0x20);
      }
      token = lowered;
    }
    if (options.remove_stopwords && IsStopword(token)) continue;
    emit(token);
  }
}

/// ForEachToken over a record's fields one after another. A space always
/// separates tokens, so this emits the tokens of the fields joined by single
/// spaces (a record's text, Definition 1) without building the joined
/// string.
template <typename Emit>
void ForEachFieldToken(std::span<const std::string> fields,
                       const TokenizerOptions& options, Emit&& emit) {
  for (const std::string& field : fields) {
    ForEachToken(std::string_view(field), options, emit);
  }
}

/// The tokens of `textv` (ForEachToken), collected in order.
std::vector<std::string> Tokenize(std::string_view textv,
                                  const TokenizerOptions& options = {});

}  // namespace smartcrawl::text
