#include "text/stopwords.h"

namespace smartcrawl::text {

const std::unordered_set<std::string_view>& DefaultStopwords() {
  // Classic SMART-style English stop words, trimmed to those that plausibly
  // appear in titles / names / venues.
  static const std::unordered_set<std::string_view> kStopwords = {
      "a",     "an",    "and",   "are",   "as",    "at",    "be",    "but",
      "by",    "for",   "from",  "has",   "have",  "in",    "into",  "is",
      "it",    "its",   "no",    "not",   "of",    "on",    "or",    "such",
      "that",  "the",   "their", "then",  "there", "these", "they",  "this",
      "to",    "was",   "we",    "were",  "will",  "with",  "via",   "using",
      "our",   "over",  "under", "about", "can",   "do",    "does",  "how",
      "what",  "when",  "where", "which", "who",   "why",   "your",  "you",
      "i",     "he",    "she",   "his",   "her",   "them",  "than",  "so",
      "if",    "s",     "t",     "also",  "both",  "each",  "more",  "most",
      "other", "some",  "only",  "own",   "same",  "too",   "very",  "just",
      "up",    "down",  "out",   "off",   "all",   "any",   "few",   "nor",
      "now",   "been",  "being", "had",   "did",   "am",    "between",
  };
  return kStopwords;
}

bool IsStopword(std::string_view word) {
  // No default stop word is longer than "between", so longer tokens skip
  // the hash.
  constexpr size_t kLongestStopword = 7;
  return word.size() <= kLongestStopword && DefaultStopwords().count(word) > 0;
}

}  // namespace smartcrawl::text
