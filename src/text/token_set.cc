#include "text/token_set.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "text/dictionary.h"
#include "text/tokenizer.h"

namespace smartcrawl::text {

namespace {

/// The tokens met so far, back to back in `text`, each with its hash and
/// length.
struct Pending {
  std::string text;
  std::vector<std::pair<uint64_t, size_t>> tokens;

  void Add(std::string_view token) {
    tokens.emplace_back(TermDictionary::Hash(token), token.size());
    text.append(token);
  }
};

/// Keeps each distinct pending token once, in hash order, in one arena.
void Freeze(const Pending& pending, std::unique_ptr<char[]>* arena,
            std::vector<TokenSet::Token>* tokens) {
  // Order by hash (integer compares); equal hashes fall back to the text,
  // so equal tokens end up adjacent.
  std::vector<std::pair<uint64_t, std::string_view>> order;
  order.reserve(pending.tokens.size());
  size_t offset = 0;
  for (const auto& [hash, size] : pending.tokens) {
    order.emplace_back(hash,
                       std::string_view(pending.text).substr(offset, size));
    offset += size;
  }
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  size_t bytes = 0;
  for (const auto& [hash, text] : order) bytes += text.size();
  *arena = std::make_unique_for_overwrite<char[]>(bytes);
  tokens->reserve(order.size());
  char* out = arena->get();
  for (const auto& [hash, text] : order) {
    std::memcpy(out, text.data(), text.size());
    tokens->push_back(
        TokenSet::Token{std::string_view(out, text.size()), hash});
    out += text.size();
  }
}

}  // namespace

TokenSet::TokenSet(std::span<const std::string> fields) {
  Pending pending;
  ForEachFieldToken(fields,
                    [&](std::string_view token) { pending.Add(token); });
  Freeze(pending, &arena_, &tokens_);
}

TokenSet::TokenSet(std::string_view textv) {
  Pending pending;
  ForEachToken(textv, [&](std::string_view token) { pending.Add(token); });
  Freeze(pending, &arena_, &tokens_);
}

}  // namespace smartcrawl::text
