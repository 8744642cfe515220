#include "text/dictionary.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace smartcrawl::text {
namespace {

TEST(DictionaryTest, InternAssignsDenseIds) {
  TermDictionary dict;
  EXPECT_EQ(dict.Intern("alpha"), 0u);
  EXPECT_EQ(dict.Intern("beta"), 1u);
  EXPECT_EQ(dict.Intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, TermOfRoundTrips) {
  TermDictionary dict;
  TermId a = dict.Intern("noodle");
  TermId b = dict.Intern("house");
  EXPECT_EQ(dict.TermOf(a), "noodle");
  EXPECT_EQ(dict.TermOf(b), "house");
}

TEST(DictionaryTest, LookupMissing) {
  TermDictionary dict;
  dict.Intern("x");
  EXPECT_FALSE(dict.Lookup("y").has_value());
  EXPECT_EQ(*dict.Lookup("x"), 0u);
}

TEST(DictionaryTest, InternSequenceThenLookup) {
  TermDictionary dict;
  std::vector<TermId> ids;
  for (const char* t : {"a", "b", "a"}) ids.push_back(dict.Intern(t));
  EXPECT_EQ(ids, (std::vector<TermId>{0, 1, 0}));
  EXPECT_EQ(dict.Lookup("b"), std::optional<TermId>(1));
  EXPECT_FALSE(dict.Lookup("missing").has_value());
  EXPECT_EQ(dict.Lookup("a"), std::optional<TermId>(0));
}

TEST(DictionaryTest, ManyTermsStayConsistent) {
  TermDictionary dict;
  for (int i = 0; i < 5000; ++i) {
    dict.Intern("term" + std::to_string(i));
  }
  EXPECT_EQ(dict.size(), 5000u);
  for (int i = 0; i < 5000; i += 371) {
    std::string t = "term" + std::to_string(i);
    ASSERT_TRUE(dict.Lookup(t).has_value());
    EXPECT_EQ(dict.TermOf(*dict.Lookup(t)), t);
  }
}

TEST(DictionaryTest, GrowsThroughManyRehashes) {
  // 150k terms take the table from its minimum size through 15 doublings;
  // every id must survive each rebuild, and near-miss strings stay absent.
  constexpr int kTerms = 150000;
  TermDictionary dict;
  for (int i = 0; i < kTerms; ++i) {
    ASSERT_EQ(dict.Intern("t" + std::to_string(i)), static_cast<TermId>(i));
  }
  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    const std::string t = "t" + std::to_string(i);
    ASSERT_EQ(dict.Lookup(t), std::optional<TermId>(i)) << t;
    ASSERT_EQ(dict.Intern(t), static_cast<TermId>(i)) << t;
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(dict.Lookup("u" + std::to_string(i)).has_value());
    EXPECT_FALSE(dict.Lookup("t" + std::to_string(kTerms + i)).has_value());
  }
  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
}

TEST(DictionaryTest, HashedLookupAgreesWithPlainLookup) {
  TermDictionary dict;
  for (int i = 0; i < 3000; ++i) dict.Intern("w" + std::to_string(i * 7));
  dict.Intern("");
  for (int i = 0; i < 25000; ++i) {
    const std::string t = "w" + std::to_string(i);
    EXPECT_EQ(dict.Lookup(t, TermDictionary::Hash(t)), dict.Lookup(t)) << t;
  }
  EXPECT_EQ(dict.Lookup("", TermDictionary::Hash("")), dict.Lookup(""));
  EXPECT_TRUE(dict.Lookup("").has_value());
  // The hash depends on the bytes alone.
  const std::string a = "noodle";
  const std::string b = std::string("noo") + "dle";
  EXPECT_EQ(TermDictionary::Hash(a), TermDictionary::Hash(b));
}

TEST(DictionaryTest, LookupOnEmptyDictionary) {
  const TermDictionary dict;
  EXPECT_FALSE(dict.Lookup("x").has_value());
  EXPECT_FALSE(dict.Lookup("x", TermDictionary::Hash("x")).has_value());
}

TEST(DictionaryTest, ReserveKeepsIdsAndLookups) {
  TermDictionary dict;
  dict.Intern("before");
  dict.Reserve(10000);
  for (int i = 0; i < 10000; ++i) dict.Intern("r" + std::to_string(i));
  EXPECT_EQ(*dict.Lookup("before"), 0u);
  EXPECT_EQ(*dict.Lookup("r9999"), 10000u);
  dict.Reserve(5);  // shrinking is a no-op
  EXPECT_EQ(*dict.Lookup("r17"), 18u);
}

TEST(DictionaryTest, CopiesAreIndependent) {
  // Callers copy a frozen plan dictionary and intern into the copy; the
  // original must not see the new terms, nor the copy lose old ones, on
  // either side of a rehash.
  TermDictionary original;
  for (int i = 0; i < 100; ++i) original.Intern("o" + std::to_string(i));
  TermDictionary copy = original;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(copy.Intern("c" + std::to_string(i)),
              static_cast<TermId>(100 + i));
  }
  EXPECT_EQ(original.size(), 100u);
  EXPECT_FALSE(original.Lookup("c0").has_value());
  EXPECT_FALSE(original.Lookup("c4999").has_value());
  for (int i = 0; i < 100; ++i) {
    const std::string t = "o" + std::to_string(i);
    EXPECT_EQ(*original.Lookup(t), static_cast<TermId>(i));
    EXPECT_EQ(*copy.Lookup(t), static_cast<TermId>(i));
  }
  // Interning into the original afterwards leaves the copy alone too.
  EXPECT_EQ(original.Intern("late"), 100u);
  EXPECT_EQ(*copy.Lookup("c0"), 100u);
  EXPECT_EQ(copy.TermOf(100), "c0");
  TermDictionary assigned;
  assigned = copy;
  EXPECT_EQ(assigned.size(), copy.size());
  EXPECT_EQ(*assigned.Lookup("c4999"), 5099u);
}

}  // namespace
}  // namespace smartcrawl::text
