#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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

  /// The 64-bit hash every probe uses. Callers that probe the same token
  /// many times (text::TokenSet) compute it once and pass it to the
  /// two-argument Lookup.
  static uint64_t Hash(std::string_view term);

  /// Returns the id for `term`, creating a new one if unseen.
  TermId Intern(std::string_view term);

  /// Returns the id for `term` if present.
  std::optional<TermId> Lookup(std::string_view term) const {
    return Lookup(term, Hash(term));
  }

  /// Lookup with `hash` == Hash(term) already computed.
  std::optional<TermId> Lookup(std::string_view term, uint64_t hash) const;

  /// The string for `id`. Requires id < size().
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  size_t size() const { return terms_.size(); }

  /// Pre-sizes the table and the term vector for `n` terms. Used by bulk
  /// loaders (e.g. the snapshot reader) that know the final size up front.
  void Reserve(size_t n);

 private:
  /// One open-addressing slot: the high half of the term's hash, to skip
  /// most non-matching slots without touching terms_, and the term's id
  /// (kInvalidTermId when empty). The low bits of the hash pick the home
  /// slot. Ids, not pointers, so a copied dictionary is independent.
  struct Slot {
    uint32_t tag = 0;
    TermId id = kInvalidTermId;
  };

  /// The slot holding `term`, or the empty slot where it would go.
  size_t FindSlot(std::string_view term, uint64_t hash) const;
  /// Rebuilds the table with at least `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;  // size is 0 or a power of two, at most half full
  std::vector<std::string> terms_;
};

}  // namespace smartcrawl::text
