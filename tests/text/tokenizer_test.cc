#include "text/tokenizer.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "text/stopwords.h"

namespace smartcrawl::text {
namespace {

TEST(TokenizerTest, BasicSplitAndLowercase) {
  auto toks = Tokenize("Thai Noodle House");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "thai");
  EXPECT_EQ(toks[1], "noodle");
  EXPECT_EQ(toks[2], "house");
}

TEST(TokenizerTest, PunctuationSeparates) {
  auto toks = Tokenize("data-driven,systems;  (2019)");
  EXPECT_EQ(toks, (std::vector<std::string>{"data", "driven", "systems",
                                            "2019"}));
}

TEST(TokenizerTest, StopwordsRemovedByDefault) {
  auto toks = Tokenize("The Lotus of Siam");
  EXPECT_EQ(toks, (std::vector<std::string>{"lotus", "siam"}));
}

TEST(TokenizerTest, StopwordsKeptWhenDisabled) {
  TokenizerOptions opt;
  opt.remove_stopwords = false;
  auto toks = Tokenize("The Lotus of Siam", opt);
  EXPECT_EQ(toks, (std::vector<std::string>{"the", "lotus", "of", "siam"}));
}

TEST(TokenizerTest, CaseSensitiveMode) {
  TokenizerOptions opt;
  opt.lowercase = false;
  opt.remove_stopwords = false;
  auto toks = Tokenize("Thai HOUSE", opt);
  EXPECT_EQ(toks, (std::vector<std::string>{"Thai", "HOUSE"}));
}

TEST(TokenizerTest, DigitsKeptByDefault) {
  auto toks = Tokenize("room 42b");
  EXPECT_EQ(toks, (std::vector<std::string>{"room", "42b"}));
}

TEST(TokenizerTest, DigitsDroppedWhenDisabled) {
  TokenizerOptions opt;
  opt.keep_digits = false;
  auto toks = Tokenize("room 42b 2019", opt);
  EXPECT_EQ(toks, (std::vector<std::string>{"room", "b"}));
}

TEST(TokenizerTest, MinTokenLength) {
  TokenizerOptions opt;
  opt.min_token_length = 3;
  auto toks = Tokenize("go to the big db lab", opt);
  EXPECT_EQ(toks, (std::vector<std::string>{"big", "lab"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("  \t\n ").empty());
  EXPECT_TRUE(Tokenize("--- ;;; ...").empty());
}

TEST(TokenizerTest, DuplicatesPreserved) {
  auto toks = Tokenize("house house house");
  EXPECT_EQ(toks.size(), 3u);
}

std::vector<std::string> FieldTokens(const std::vector<std::string>& fields,
                                     const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  ForEachFieldToken(fields, options,
                    [&](std::string_view t) { tokens.emplace_back(t); });
  return tokens;
}

TEST(TokenizerTest, FieldByFieldEqualsJoinedText) {
  // A record's text is its fields joined by single spaces; tokenizing the
  // fields one by one must give the same tokens under any options, even
  // when a field boundary falls inside what would be one word.
  const std::vector<std::vector<std::string>> records = {
      {},
      {""},
      {"", "", ""},
      {"Thai Noodle House", "2019", "the"},
      {"data", "base"},
      {"data-", "-driven", "", "of THE", "x"},
      {"  leading", "trailing  ", "\tTabs\nand;punct.", "Ab12cd", "9"},
      {"The", "of", "and"},
  };
  std::vector<TokenizerOptions> options(4);
  options[1].remove_stopwords = false;
  options[1].lowercase = false;
  options[2].keep_digits = false;
  options[3].min_token_length = 3;
  for (const TokenizerOptions& opt : options) {
    for (const std::vector<std::string>& fields : records) {
      std::string joined;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) joined += ' ';
        joined += fields[i];
      }
      EXPECT_EQ(FieldTokens(fields, opt), Tokenize(joined, opt))
          << "joined: '" << joined << "'";
    }
  }
  EXPECT_EQ(FieldTokens(records[4], {}),
            (std::vector<std::string>{"data", "base"}));
}

TEST(StopwordsTest, CommonWordsAreStopwords) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("of"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("database"));
  EXPECT_FALSE(IsStopword("noodle"));
}

TEST(StopwordsTest, EveryListedWordIsAStopword) {
  // IsStopword rejects long words before the set lookup; a longer word
  // added to the list must still be found.
  for (std::string_view word : DefaultStopwords()) {
    EXPECT_TRUE(IsStopword(word)) << word;
  }
}

TEST(StopwordsTest, MatchingIsExactLowercase) {
  // The tokenizer lowercases before the check; the raw list is lowercase.
  EXPECT_FALSE(IsStopword("The"));
}

}  // namespace
}  // namespace smartcrawl::text
