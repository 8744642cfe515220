#include "text/document.h"

#include <algorithm>
#include <optional>

#include "text/tokenizer.h"

namespace smartcrawl::text {

Document::Document(std::vector<TermId> terms) : terms_(std::move(terms)) {
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
}

Document Document::FromText(std::string_view textv, TermDictionary& dict) {
  std::vector<TermId> ids;
  ForEachToken(textv, [&](std::string_view token) {
    ids.push_back(dict.Intern(token));
  });
  return Document(std::move(ids));
}

Document Document::FromFields(std::span<const std::string> fields,
                              TermDictionary& dict) {
  std::vector<TermId> ids;
  ForEachFieldToken(fields, [&](std::string_view token) {
    ids.push_back(dict.Intern(token));
  });
  return Document(std::move(ids));
}

Document Document::FromTokensFrozen(const TokenSet& tokens,
                                    const TermDictionary& dict) {
  std::vector<TermId> ids;
  ids.reserve(tokens.size());
  size_t num_unknown = 0;
  for (const TokenSet::Token& token : tokens.tokens()) {
    if (std::optional<TermId> id = dict.Lookup(token.text, token.hash)) {
      ids.push_back(*id);
    } else {
      ++num_unknown;
    }
  }
  // Distinct tokens have distinct ids. Only the NUMBER of unseen tokens
  // matters (they match nothing), so they take the ids dict.size(),
  // dict.size() + 1, ..., all above every known id.
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < num_unknown; ++i) {
    ids.push_back(static_cast<TermId>(dict.size() + i));
  }
  return FromSortedUnique(std::move(ids));
}

bool Document::Contains(TermId term) const {
  return std::binary_search(terms_.begin(), terms_.end(), term);
}

bool Document::ContainsAll(const std::vector<TermId>& query_terms) const {
  // Both sides sorted ascending; query_terms may contain duplicates (a
  // duplicated keyword is still just one containment requirement), so the
  // cursor is NOT advanced past a matched term.
  auto it = terms_.begin();
  for (TermId t : query_terms) {
    it = std::lower_bound(it, terms_.end(), t);
    if (it == terms_.end() || *it != t) return false;
  }
  return true;
}

size_t Document::IntersectionSize(const Document& other) const {
  size_t count = 0;
  auto a = terms_.begin();
  auto b = other.terms_.begin();
  while (a != terms_.end() && b != other.terms_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

double Document::Jaccard(const Document& other) const {
  size_t inter = IntersectionSize(other);
  size_t uni = terms_.size() + other.terms_.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace smartcrawl::text
