#include "match/prefix_filter.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/random.h"

namespace smartcrawl::match {
namespace {

using text::Document;
using text::TermId;

std::vector<JoinPair> NaiveSorted(const std::vector<Document>& left,
                                  const std::vector<Document>& right,
                                  double threshold) {
  auto pairs = JaccardJoin(left, right, threshold);
  std::sort(pairs.begin(), pairs.end(), [](const JoinPair& a,
                                           const JoinPair& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  return pairs;
}

void ExpectSameJoin(const std::vector<JoinPair>& got,
                    const std::vector<JoinPair>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].left, expect[i].left) << i;
    EXPECT_EQ(got[i].right, expect[i].right) << i;
    EXPECT_DOUBLE_EQ(got[i].similarity, expect[i].similarity) << i;
  }
}

TEST(PrefixFilterJoinTest, SmallExactCase) {
  std::vector<Document> left = {Document({1, 2, 3}), Document({4, 5}),
                                Document({6})};
  std::vector<Document> right = {Document({1, 2, 3, 7}), Document({4, 5}),
                                 Document({8})};
  auto got = PrefixFilterJaccardJoin(left, right, 0.7);
  ExpectSameJoin(got, NaiveSorted(left, right, 0.7));
  ASSERT_EQ(got.size(), 2u);  // (0,0) at 0.75 and (1,1) at 1.0
}

TEST(PrefixFilterJoinTest, EmptyInputs) {
  EXPECT_TRUE(PrefixFilterJaccardJoin({}, {}, 0.5).empty());
  std::vector<Document> one = {Document({1})};
  EXPECT_TRUE(PrefixFilterJaccardJoin(one, {}, 0.5).empty());
  EXPECT_TRUE(PrefixFilterJaccardJoin({}, one, 0.5).empty());
}

TEST(PrefixFilterJoinTest, EmptyDocumentsNeverJoin) {
  std::vector<Document> left = {Document(), Document({1})};
  std::vector<Document> right = {Document(), Document({1})};
  auto got = PrefixFilterJaccardJoin(left, right, 0.5);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].left, 1u);
  EXPECT_EQ(got[0].right, 1u);
}

struct PjParams {
  size_t nl, nr, vocab, max_len;
  double threshold;
  uint64_t seed;
};

class PrefixFilterPropertyTest : public ::testing::TestWithParam<PjParams> {
};

TEST_P(PrefixFilterPropertyTest, EqualsNaiveJoin) {
  const auto& p = GetParam();
  smartcrawl::Rng rng(p.seed);
  auto make_docs = [&](size_t n) {
    std::vector<Document> docs;
    for (size_t i = 0; i < n; ++i) {
      size_t len = rng.UniformIndex(p.max_len + 1);
      std::vector<TermId> t;
      for (size_t j = 0; j < len; ++j) {
        // Skewed vocabulary so common tokens exist (stress the ordering).
        uint64_t r = rng.UniformIndex(p.vocab);
        t.push_back(static_cast<TermId>(r * r / p.vocab));
      }
      docs.emplace_back(std::move(t));
    }
    return docs;
  };
  auto left = make_docs(p.nl);
  auto right = make_docs(p.nr);
  ExpectSameJoin(PrefixFilterJaccardJoin(left, right, p.threshold),
                 NaiveSorted(left, right, p.threshold));
}

INSTANTIATE_TEST_SUITE_P(
    RandomJoins, PrefixFilterPropertyTest,
    ::testing::Values(PjParams{50, 50, 20, 6, 0.5, 1},
                      PjParams{200, 150, 40, 8, 0.7, 2},
                      PjParams{300, 300, 25, 10, 0.9, 3},
                      PjParams{100, 400, 60, 5, 0.3, 4},
                      PjParams{250, 250, 15, 12, 0.8, 5},
                      PjParams{500, 100, 100, 7, 0.95, 6},
                      PjParams{64, 64, 8, 16, 0.6, 7}));

TEST(AutoJaccardJoinTest, SmallInputsUseNestedLoop) {
  std::vector<Document> left = {Document({1, 2})};
  std::vector<Document> right = {Document({1, 2})};
  auto got = AutoJaccardJoin(left, right, 0.5);
  ASSERT_EQ(got.size(), 1u);
}

/// AutoJaccardJoin ≡ JaccardJoin on the same left side joined against a
/// right side just below and just above 10^6 candidate pairs: the naive
/// join's pairs, order, and similarity values.
TEST(AutoJaccardJoinTest, IdenticalOutputAcrossTheSwitchPoint) {
  smartcrawl::Rng rng(23);
  auto make_docs = [&](size_t n) {
    std::vector<Document> docs;
    for (size_t i = 0; i < n; ++i) {
      std::vector<TermId> t;
      size_t len = 3 + rng.UniformIndex(5);
      for (size_t j = 0; j < len; ++j) {
        t.push_back(static_cast<TermId>(rng.UniformIndex(300)));
      }
      docs.emplace_back(std::move(t));
    }
    return docs;
  };
  auto left = make_docs(1100);
  auto right = make_docs(1000);
  // 1100 x 909 = 999,900 pairs.
  std::vector<Document> below(right.begin(), right.begin() + 909);
  ExpectSameJoin(AutoJaccardJoin(left, below, 0.8),
                 NaiveSorted(left, below, 0.8));
  // 1100 x 910 = 1,001,000 pairs.
  std::vector<Document> above(right.begin(), right.begin() + 910);
  ExpectSameJoin(AutoJaccardJoin(left, above, 0.8),
                 NaiveSorted(left, above, 0.8));
}

TEST(AutoJaccardJoinTest, LargeInputsMatchNaiveToo) {
  smartcrawl::Rng rng(11);
  auto make_docs = [&](size_t n) {
    std::vector<Document> docs;
    for (size_t i = 0; i < n; ++i) {
      std::vector<TermId> t;
      for (size_t j = 0; j < 6; ++j) {
        t.push_back(static_cast<TermId>(rng.UniformIndex(500)));
      }
      docs.emplace_back(std::move(t));
    }
    return docs;
  };
  // 1500 x 1500: well past 10^6 candidate pairs.
  auto left = make_docs(1500);
  auto right = make_docs(1500);
  auto got = AutoJaccardJoin(left, right, 0.9);
  ExpectSameJoin(got, NaiveSorted(left, right, 0.9));
}

}  // namespace
}  // namespace smartcrawl::match
