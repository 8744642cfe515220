#include "text/tokenizer.h"

namespace smartcrawl::text {

std::vector<std::string> Tokenize(std::string_view textv,
                                  const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  ForEachToken(textv, options,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace smartcrawl::text
