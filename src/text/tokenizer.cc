#include "text/tokenizer.h"

namespace smartcrawl::text {

std::vector<std::string> Tokenize(std::string_view textv) {
  std::vector<std::string> tokens;
  ForEachToken(textv,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace smartcrawl::text
