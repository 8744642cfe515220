#include "index/set_kernels.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "util/random.h"

namespace smartcrawl::index {
namespace {

using text::Document;
using text::TermId;

/// Sorted unique list of roughly `len` elements drawn from [0, universe):
/// `universe` close to `len` gives dense lists (many matches), a large
/// universe gives sparse ones.
std::vector<uint32_t> MakeSortedList(smartcrawl::Rng& rng, size_t len,
                                     uint32_t universe) {
  std::vector<uint32_t> v;
  v.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<uint32_t>(rng.UniformIndex(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint32_t> RandomSortedSet(smartcrawl::Rng& rng, size_t max_len,
                                      uint32_t universe) {
  return MakeSortedList(rng, rng.UniformIndex(max_len + 1), universe);
}

size_t BruteCount(const std::vector<uint32_t>& a,
                  const std::vector<uint32_t>& b) {
  size_t count = 0;
  for (uint32_t x : a) {
    count += static_cast<size_t>(
        std::binary_search(b.begin(), b.end(), x));
  }
  return count;
}

TEST(SetKernelsTest, MergeCountSmallCases) {
  std::vector<uint32_t> a{1, 3, 5, 7};
  std::vector<uint32_t> b{2, 3, 4, 7, 9};
  EXPECT_EQ(MergeCount(a, b), 2u);
  EXPECT_EQ(MergeCount(a, a), 4u);
  EXPECT_EQ(MergeCount(a, {}), 0u);
  EXPECT_EQ(MergeCount({}, b), 0u);
}

TEST(SetKernelsTest, GallopCountMatchesMergeOnSkewedInputs) {
  smartcrawl::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto small = RandomSortedSet(rng, 8, 5000);
    auto large = RandomSortedSet(rng, 2000, 5000);
    EXPECT_EQ(GallopCount(small, large), BruteCount(small, large))
        << "trial " << trial;
  }
}

TEST(SetKernelsTest, AllKernelsAgreeOnRandomPairs) {
  smartcrawl::Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = RandomSortedSet(rng, 64, 400);
    auto b = RandomSortedSet(rng, 64, 400);
    const size_t expect = BruteCount(a, b);
    EXPECT_EQ(MergeCount(a, b), expect) << "trial " << trial;
    EXPECT_EQ(GallopCount(a, b), expect) << "trial " << trial;
    EXPECT_EQ(PairCount(a, b, nullptr), expect) << "trial " << trial;
    std::vector<uint32_t> out;
    PairIntersect(a, b, &out, nullptr);
    EXPECT_EQ(out.size(), expect) << "trial " << trial;
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

TEST(SetKernelsTest, PairCountSelectsKernelByRatioAndTallies) {
  KernelCounters counters;
  // 2 * kGallopRatio < 128: skewed enough to gallop.
  std::vector<uint32_t> small{10, 500};
  std::vector<uint32_t> large(1000);
  for (uint32_t i = 0; i < 1000; ++i) large[i] = i;
  EXPECT_EQ(PairCount(small, large, &counters), 2u);
  // Similar sizes: merge.
  EXPECT_EQ(PairCount(large, large, &counters), 1000u);
  KernelStats s = counters.Snapshot();
  EXPECT_EQ(s.galloping, 1u);
  EXPECT_EQ(s.merge, 1u);
  EXPECT_EQ(s.bitmap, 0u);
  // Tiny inputs on both sides take the merge as well.
  EXPECT_EQ(PairCount(std::vector<uint32_t>{1, 2, 3},
                      std::vector<uint32_t>{2, 3, 4}, &counters),
            2u);
  s = counters.Snapshot();
  EXPECT_EQ(s.galloping, 1u);
  EXPECT_EQ(s.merge, 2u);
  EXPECT_EQ(s.bitmap, 0u);
  EXPECT_EQ(s.materialized, 0u);
}

// ---- Size/density grid against brute-force references -------------------

/// List lengths from empty through odd tails to a few thousand, crossed
/// with dense and sparse universes (universe = len * density inverse).
constexpr size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                             31, 33, 64, 100, 257, 1000, 4096};
constexpr uint32_t kDensityInv[] = {1, 2, 8, 64};

TEST(SetKernelsTest, MergeAndPairCountMatchBruteForceAcrossGrid) {
  smartcrawl::Rng rng(0x51u);
  for (size_t na : kSizes) {
    for (size_t nb : kSizes) {
      for (uint32_t dinv : kDensityInv) {
        const uint32_t universe = static_cast<uint32_t>(
            std::max<size_t>(1, std::max(na, nb) * dinv));
        std::vector<uint32_t> a = MakeSortedList(rng, na, universe);
        std::vector<uint32_t> b = MakeSortedList(rng, nb, universe);
        const size_t want = BruteCount(a, b);
        EXPECT_EQ(MergeCount(a, b), want)
            << "na=" << na << " nb=" << nb << " dinv=" << dinv;
        EXPECT_EQ(PairCount(a, b, nullptr), want)
            << "na=" << na << " nb=" << nb << " dinv=" << dinv;
      }
    }
  }
}

TEST(SetKernelsTest, MergeCountAdversarialShapes) {
  // Identical lists, fully disjoint interleaved lists, and one list
  // entirely below the other.
  std::vector<uint32_t> base(513);
  for (uint32_t i = 0; i < base.size(); ++i) base[i] = 2 * i;
  std::vector<uint32_t> odd(513);
  for (uint32_t i = 0; i < odd.size(); ++i) odd[i] = 2 * i + 1;
  std::vector<uint32_t> high(64);
  for (uint32_t i = 0; i < high.size(); ++i) high[i] = 100000 + i;
  const std::pair<std::vector<uint32_t>, std::vector<uint32_t>> cases[] = {
      {base, base}, {base, odd}, {base, high}, {high, base}};
  const size_t want[] = {base.size(), 0, 0, 0};
  for (size_t c = 0; c < std::size(cases); ++c) {
    const auto& [a, b] = cases[c];
    ASSERT_EQ(BruteCount(a, b), want[c]) << "case " << c;
    EXPECT_EQ(MergeCount(a, b), want[c]) << "case " << c;
    EXPECT_EQ(GallopCount(a, b), want[c]) << "case " << c;
    EXPECT_EQ(PairCount(a, b, nullptr), want[c]) << "case " << c;
  }
}

TEST(SetKernelsTest, GallopCountMatchesBruteForceAcrossGrid) {
  smartcrawl::Rng rng(0x52u);
  for (size_t nsmall : {0, 1, 2, 5, 8, 17, 50}) {
    for (size_t nlarge : kSizes) {
      for (uint32_t dinv : kDensityInv) {
        const uint32_t universe = static_cast<uint32_t>(
            std::max<size_t>(1, std::max(nsmall, nlarge) * dinv));
        std::vector<uint32_t> small = MakeSortedList(rng, nsmall, universe);
        std::vector<uint32_t> large = MakeSortedList(rng, nlarge, universe);
        EXPECT_EQ(GallopCount(small, large), BruteCount(small, large))
            << "nsmall=" << nsmall << " nlarge=" << nlarge
            << " dinv=" << dinv;
      }
    }
  }
}

TEST(SetKernelsTest, GallopLowerBoundMatchesStdLowerBound) {
  smartcrawl::Rng rng(0x53u);
  for (size_t n : kSizes) {
    std::vector<uint32_t> v =
        MakeSortedList(rng, n, static_cast<uint32_t>(4 * n + 8));
    const uint32_t* const begin = v.data();
    const uint32_t* const end = v.data() + v.size();
    // Probe every present value, its neighbors, and the extremes, from
    // the start and from a cursor halfway in.
    std::vector<uint32_t> probes{0, 1, 0xffffffffu};
    for (uint32_t x : v) {
      probes.push_back(x);
      if (x > 0) probes.push_back(x - 1);
      probes.push_back(x + 1);
    }
    for (const uint32_t* from : {begin, begin + v.size() / 2}) {
      for (uint32_t x : probes) {
        EXPECT_EQ(internal::GallopLowerBound(from, end, x),
                  std::lower_bound(from, end, x))
            << "n=" << n << " from=" << (from - begin) << " x=" << x;
      }
    }
  }
}

TEST(SetKernelsTest, BitmapAndCountMatchesBitByBitLoop) {
  smartcrawl::Rng rng(0x54u);
  for (size_t words : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
    for (double fill : {0.0, 0.03, 0.5, 1.0}) {
      std::vector<uint64_t> a(words, 0);
      std::vector<uint64_t> b(words, 0);
      for (size_t w = 0; w < words; ++w) {
        for (int bit = 0; bit < 64; ++bit) {
          if (rng.Bernoulli(fill)) a[w] |= uint64_t{1} << bit;
          if (rng.Bernoulli(fill)) b[w] |= uint64_t{1} << bit;
        }
      }
      size_t want = 0;
      for (uint32_t pos = 0; pos < words * 64; ++pos) {
        want += static_cast<size_t>(BitmapTest(a, pos) && BitmapTest(b, pos));
      }
      EXPECT_EQ(BitmapAndCount(a, b), want)
          << "words=" << words << " fill=" << fill;
      KernelCounters counters;
      EXPECT_EQ(BitmapAndCount(a, b, &counters), want)
          << "words=" << words << " fill=" << fill;
      EXPECT_EQ(counters.Snapshot().bitmap, 1u);
    }
  }
}

TEST(SetKernelsTest, BitmapHelpers) {
  // Bits {0, 5, 64, 100} over two words.
  std::vector<uint64_t> words(2, 0);
  for (uint32_t bit : {0u, 5u, 64u, 100u}) {
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  EXPECT_TRUE(BitmapTest(words, 5));
  EXPECT_FALSE(BitmapTest(words, 6));
  std::vector<uint32_t> list{0, 6, 64, 101};
  EXPECT_EQ(BitmapListCount(words, list), 2u);

  std::vector<uint64_t> other(2, 0);
  for (uint32_t bit : {5u, 100u, 101u}) {
    other[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  EXPECT_EQ(BitmapAndCount(words, other), 2u);  // bits 5 and 100
}

TEST(SetKernelsTest, KernelStatsAccumulate) {
  KernelStats a;
  a.galloping = 1;
  a.merge = 2;
  KernelStats b;
  b.merge = 3;
  b.bitmap = 4;
  b.materialized = 5;
  a += b;
  EXPECT_EQ(a.galloping, 1u);
  EXPECT_EQ(a.merge, 5u);
  EXPECT_EQ(a.bitmap, 4u);
  EXPECT_EQ(a.materialized, 5u);
}

// ---- Index-level kernel behavior ----------------------------------------

/// Dense corpus (vocab 8, 200 docs): every term's posting list exceeds the
/// bitmap density threshold, so the bitmap path must engage.
std::vector<Document> DenseCorpus(size_t num_docs, smartcrawl::Rng& rng) {
  std::vector<Document> docs;
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<TermId> terms;
    size_t len = 1 + rng.UniformIndex(5);
    for (size_t i = 0; i < len; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformIndex(8)));
    }
    docs.emplace_back(std::move(terms));
  }
  return docs;
}

TEST(SetKernelsIndexTest, DenseTermsCarryBitmapsAndCountsMatch) {
  smartcrawl::Rng rng(23);
  auto docs = DenseCorpus(200, rng);
  InvertedIndex idx(docs, 8);

  bool any_bitmap = false;
  for (TermId t = 0; t < 8; ++t) any_bitmap |= idx.HasBitmap(t);
  ASSERT_TRUE(any_bitmap) << "dense corpus must trigger the bitmap layout";

  for (int trial = 0; trial < 100; ++trial) {
    size_t qlen = 1 + rng.UniformIndex(3);
    std::vector<TermId> q;
    for (size_t i = 0; i < qlen; ++i) {
      q.push_back(static_cast<TermId>(rng.UniformIndex(8)));
    }
    std::sort(q.begin(), q.end());
    size_t expect = 0;
    for (const auto& d : docs) {
      expect += static_cast<size_t>(d.ContainsAll(q));
    }
    EXPECT_EQ(idx.IntersectionSize(q), expect) << "trial " << trial;
  }
  EXPECT_GT(idx.kernel_stats().bitmap, 0u);
}

TEST(SetKernelsIndexTest, SmallCorpusNeverBuildsBitmaps) {
  // Below kBitmapMinDocs the bitmap layout must not engage, however dense.
  std::vector<Document> docs;
  for (size_t d = 0; d < kBitmapMinDocs - 1; ++d) {
    docs.emplace_back(std::vector<TermId>{0, 1});
  }
  InvertedIndex idx(docs, 2);
  EXPECT_FALSE(idx.HasBitmap(0));
  EXPECT_FALSE(idx.HasBitmap(1));
  EXPECT_EQ(idx.IntersectionSize({0, 1}), docs.size());
}

/// Regression for the old IntersectionSize, which materialized the full
/// intersection for multi-term queries: the count-only path must never
/// report a materializing call, whatever kernel mix it used.
TEST(SetKernelsIndexTest, CountPathNeverMaterializes) {
  smartcrawl::Rng rng(29);
  auto docs = DenseCorpus(300, rng);
  InvertedIndex idx(docs, 8);

  const uint64_t before = idx.kernel_stats().materialized;
  for (int trial = 0; trial < 50; ++trial) {
    size_t qlen = 1 + rng.UniformIndex(4);
    std::vector<TermId> q;
    for (size_t i = 0; i < qlen; ++i) {
      q.push_back(static_cast<TermId>(rng.UniformIndex(8)));
    }
    std::sort(q.begin(), q.end());
    (void)idx.IntersectionSize(q);
  }
  EXPECT_EQ(idx.kernel_stats().materialized, before)
      << "IntersectionSize must stay on the count-only path";

  (void)idx.IntersectPostings({0, 1});
  EXPECT_EQ(idx.kernel_stats().materialized, before + 1)
      << "IntersectPostings is the materializing API and must say so";
}

/// Queries beyond kInlineLists terms take the heap-fallback path; the
/// result must not change.
TEST(SetKernelsIndexTest, ManyTermQueriesUseHeapFallbackCorrectly) {
  const size_t vocab = InvertedIndex::kInlineLists + 8;
  std::vector<Document> docs;
  // Doc 0 has every term; the rest alternate halves of the vocabulary.
  std::vector<TermId> all;
  for (size_t t = 0; t < vocab; ++t) all.push_back(static_cast<TermId>(t));
  docs.emplace_back(all);
  for (size_t d = 0; d < 100; ++d) {
    std::vector<TermId> half;
    for (size_t t = d % 2; t < vocab; t += 2) {
      half.push_back(static_cast<TermId>(t));
    }
    docs.emplace_back(std::move(half));
  }
  InvertedIndex idx(docs, vocab);
  EXPECT_EQ(idx.IntersectionSize(all), 1u);  // only doc 0 has all terms
  std::vector<TermId> evens;
  for (size_t t = 0; t < vocab; t += 2) evens.push_back(static_cast<TermId>(t));
  EXPECT_EQ(idx.IntersectionSize(evens), 1u + 50u);
}

}  // namespace
}  // namespace smartcrawl::index
