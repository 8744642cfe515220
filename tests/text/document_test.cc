#include "text/document.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "text/token_set.h"

namespace smartcrawl::text {
namespace {

TEST(DocumentTest, SortsAndDeduplicates) {
  Document d({5, 1, 3, 1, 5});
  EXPECT_EQ(d.terms(), (std::vector<TermId>{1, 3, 5}));
  EXPECT_EQ(d.size(), 3u);
}

TEST(DocumentTest, FromTextInterns) {
  TermDictionary dict;
  Document d = Document::FromText("Thai Noodle House noodle", dict);
  EXPECT_EQ(d.size(), 3u);  // noodle deduplicated
  EXPECT_TRUE(d.Contains(*dict.Lookup("thai")));
  EXPECT_TRUE(d.Contains(*dict.Lookup("noodle")));
  EXPECT_TRUE(d.Contains(*dict.Lookup("house")));
}

TEST(DocumentTest, FromTokensFrozenCountsUnknown) {
  TermDictionary dict;
  dict.Intern("thai");
  dict.Intern("house");
  Document local = Document::FromTokensFrozen(TokenSet("Thai House"), dict);
  Document d =
      Document::FromTokensFrozen(TokenSet("Thai Steak House steak"), dict);
  // "steak" is unseen: counted once (with an id past the dictionary), so
  // the Jaccard denominator matches interning, but it matches nothing.
  EXPECT_EQ(d.size(), 3u);
  EXPECT_GE(d.terms().back(), dict.size());
  EXPECT_EQ(d.IntersectionSize(local), 2u);
  EXPECT_DOUBLE_EQ(d.Jaccard(local), 2.0 / 3.0);
  EXPECT_FALSE(dict.Lookup("steak").has_value());  // dictionary untouched
  EXPECT_EQ(dict.size(), 2u);

  // Distinct unseen tokens get distinct ids; an all-unknown text still
  // has its full size.
  Document unknown =
      Document::FromTokensFrozen(TokenSet("steak grill steak bar"), dict);
  EXPECT_EQ(unknown.size(), 3u);
  EXPECT_EQ(unknown.IntersectionSize(local), 0u);
}

TEST(DocumentTest, TokenSetKeepsDistinctTokensWithTheirHashes) {
  const std::vector<std::string> fields = {"Thai House", "", "house THAI",
                                           "the grill"};
  const TokenSet set(fields);
  std::vector<std::string> texts;
  for (const TokenSet::Token& t : set.tokens()) {
    texts.emplace_back(t.text);
    EXPECT_EQ(t.hash, TermDictionary::Hash(t.text));
  }
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(texts, (std::vector<std::string>{"grill", "house", "thai"}));
  // The text constructor sees the fields joined by spaces: same tokens.
  EXPECT_EQ(TokenSet("Thai House  house THAI the grill").size(), 3u);
  EXPECT_EQ(TokenSet(std::vector<std::string>{}).size(), 0u);
  EXPECT_EQ(TokenSet("the of and").size(), 0u);
  // Moving the set keeps its views valid (they point into its arena).
  TokenSet original(fields);
  const TokenSet moved(std::move(original));
  EXPECT_EQ(moved.size(), 3u);
  for (const TokenSet::Token& t : moved.tokens()) {
    EXPECT_EQ(t.hash, TermDictionary::Hash(t.text));
  }
}

TEST(DocumentTest, FromFieldsEqualsFromTextOverJoinedFields) {
  const std::vector<std::string> fields = {"Deep Web", "web-crawling", "",
                                           "2019 of"};
  TermDictionary by_fields;
  TermDictionary by_text;
  Document a = Document::FromFields(fields, by_fields);
  Document b = Document::FromText("Deep Web web-crawling  2019 of", by_text);
  EXPECT_EQ(a, b);
  ASSERT_EQ(by_fields.size(), by_text.size());  // same terms, same ids
  for (TermId t = 0; t < by_fields.size(); ++t) {
    EXPECT_EQ(by_fields.TermOf(t), by_text.TermOf(t));
  }
}

TEST(DocumentTest, FromTokensFrozenEqualsInterningIntoACopy) {
  // A frozen document holds the known ids plus one overflow id per
  // distinct unseen token, dict.size() upwards: exactly the document that
  // interning the text into a copy of the dictionary gives.
  TermDictionary dict;
  Document::FromText("noodle house thai", dict);
  for (const char* text : {"Thai noodle bar bar grill", "", "the of",
                           "unknown words only", "NOODLE noodle"}) {
    TermDictionary copy = dict;
    EXPECT_EQ(Document::FromTokensFrozen(TokenSet(text), dict),
              Document::FromText(text, copy))
        << text;
  }
  EXPECT_EQ(dict.size(), 3u);
  Document d = Document::FromTokensFrozen(TokenSet("Thai bar grill bar"), dict);
  EXPECT_EQ(d.size(), 3u);  // thai + two distinct unknowns
  EXPECT_EQ(d.terms()[1], dict.size());
  EXPECT_EQ(d.terms()[2], dict.size() + 1);
}

TEST(DocumentTest, ContainsAllConjunctiveSemantics) {
  TermDictionary dict;
  Document d = Document::FromText("progressive deep web crawling", dict);
  std::vector<TermId> q1 = {*dict.Lookup("deep"), *dict.Lookup("web")};
  std::sort(q1.begin(), q1.end());
  EXPECT_TRUE(d.ContainsAll(q1));

  TermId other = dict.Intern("shallow");
  std::vector<TermId> q2 = {*dict.Lookup("deep"), other};
  std::sort(q2.begin(), q2.end());
  EXPECT_FALSE(d.ContainsAll(q2));
}

TEST(DocumentTest, ContainsAllEmptyQueryIsTrue) {
  Document d({1, 2});
  EXPECT_TRUE(d.ContainsAll({}));
}

TEST(DocumentTest, ContainsAllOnEmptyDocument) {
  Document d;
  EXPECT_FALSE(d.ContainsAll({1}));
  EXPECT_TRUE(d.ContainsAll({}));
}

TEST(DocumentTest, IntersectionSize) {
  Document a({1, 2, 3, 4});
  Document b({3, 4, 5});
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(b.IntersectionSize(a), 2u);
  EXPECT_EQ(a.IntersectionSize(Document{}), 0u);
}

TEST(DocumentTest, Jaccard) {
  Document a({1, 2, 3});
  Document b({2, 3, 4});
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(a.Jaccard(a), 1.0);
  EXPECT_DOUBLE_EQ(a.Jaccard(Document{}), 0.0);
  EXPECT_DOUBLE_EQ(Document{}.Jaccard(Document{}), 1.0);
}

TEST(DocumentTest, EqualityIsSetEquality) {
  EXPECT_EQ(Document({3, 1, 2}), Document({1, 2, 3}));
  EXPECT_FALSE(Document({1, 2}) == Document({1, 2, 3}));
}

}  // namespace
}  // namespace smartcrawl::text
