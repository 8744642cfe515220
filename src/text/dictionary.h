#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file dictionary.h
/// String interning: maps each distinct keyword to a dense TermId.
///
/// All indices, documents, queries and itemsets operate on TermIds; the
/// dictionary is the single place where keyword strings live. A shared
/// dictionary across the local database, the hidden database and the sample
/// guarantees that "the same keyword" means the same id everywhere.

namespace smartcrawl::text {

using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

class TermDictionary {
 public:
  TermDictionary() = default;

  /// Returns the id for `term`, creating a new one if unseen.
  TermId Intern(std::string_view term);

  /// Returns the id for `term` if present.
  std::optional<TermId> Lookup(std::string_view term) const;

  /// The string for `id`. Requires id < size().
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  size_t size() const { return terms_.size(); }

  /// Pre-sizes the map and the term vector for `n` terms. Used by bulk
  /// loaders (e.g. the snapshot reader) that know the final size up front.
  void Reserve(size_t n) {
    ids_.reserve(n);
    terms_.reserve(n);
  }

  /// Interns every string in `tokens`.
  std::vector<TermId> InternAll(const std::vector<std::string>& tokens);

  /// Looks up every token; tokens not in the dictionary map to
  /// kInvalidTermId. (Used when matching external text against a frozen
  /// dictionary.)
  std::vector<TermId> LookupAll(const std::vector<std::string>& tokens) const;

 private:
  /// Transparent hash: lets Lookup/Intern probe with a string_view
  /// without materializing a std::string per token.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, TermId, StringHash, std::equal_to<>> ids_;
  std::vector<std::string> terms_;
};

}  // namespace smartcrawl::text
