#include "text/dictionary.h"

namespace smartcrawl::text {

TermId TermDictionary::Intern(std::string_view term) {
  auto it = ids_.find(term);
  if (it != ids_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  ids_.emplace(terms_.back(), id);
  return id;
}

std::optional<TermId> TermDictionary::Lookup(std::string_view term) const {
  auto it = ids_.find(term);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::vector<TermId> TermDictionary::InternAll(
    const std::vector<std::string>& tokens) {
  std::vector<TermId> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) out.push_back(Intern(t));
  return out;
}

std::vector<TermId> TermDictionary::LookupAll(
    const std::vector<std::string>& tokens) const {
  std::vector<TermId> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) {
    auto id = Lookup(t);
    out.push_back(id.value_or(kInvalidTermId));
  }
  return out;
}

}  // namespace smartcrawl::text
