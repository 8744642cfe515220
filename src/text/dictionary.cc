#include "text/dictionary.h"

#include <bit>

#include "util/hash.h"

namespace smartcrawl::text {

namespace {

constexpr size_t kMinSlots = 16;

uint32_t TagOf(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

uint64_t TermDictionary::Hash(std::string_view term) {
  return HashBytes64(term.data(), term.size());
}

size_t TermDictionary::FindSlot(std::string_view term, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = TagOf(hash);
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots_[i].id != kInvalidTermId &&
         (slots_[i].tag != tag || terms_[slots_[i].id] != term)) {
    i = (i + 1) & mask;
  }
  return i;
}

void TermDictionary::Rehash(size_t capacity) {
  slots_.assign(std::bit_ceil(std::max(capacity, kMinSlots)), Slot{});
  const size_t mask = slots_.size() - 1;
  for (TermId id = 0; id < terms_.size(); ++id) {
    const uint64_t hash = Hash(terms_[id]);
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i].id != kInvalidTermId) i = (i + 1) & mask;
    slots_[i] = Slot{TagOf(hash), id};
  }
}

void TermDictionary::Reserve(size_t n) {
  terms_.reserve(n);
  if (2 * n > slots_.size()) Rehash(2 * n);
}

TermId TermDictionary::Intern(std::string_view term) {
  // Grow before probing so the slot found stays valid for the insertion.
  if (2 * (terms_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
  const uint64_t hash = Hash(term);
  const size_t i = FindSlot(term, hash);
  if (slots_[i].id != kInvalidTermId) return slots_[i].id;
  const auto id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  slots_[i] = Slot{TagOf(hash), id};
  return id;
}

std::optional<TermId> TermDictionary::Lookup(std::string_view term,
                                             uint64_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const TermId id = slots_[FindSlot(term, hash)].id;
  if (id == kInvalidTermId) return std::nullopt;
  return id;
}

}  // namespace smartcrawl::text
