#include "match/prefix_filter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>

#include "index/csr.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace smartcrawl::match {

namespace {

constexpr uint32_t kUnassigned = UINT32_MAX;

/// Prefix length for a set of size `n` at Jaccard threshold `t`:
/// n - ceil(t * n) + 1.
size_t PrefixLength(size_t n, double t) {
  if (n == 0) return 0;
  auto required = static_cast<size_t>(std::ceil(t * static_cast<double>(n)));
  if (required == 0) required = 1;
  if (required > n) return 0;  // unsatisfiable
  return n - required + 1;
}

/// Every token of the join as a frequency rank: rank 0 is the rarest term
/// over both sides, ties broken by term id, so prefixes are selective.
/// Document d (left documents first, then right) owns the flat slice
/// ranks[offsets[d], offsets[d + 1]), which starts with its prefix — its
/// PrefixLength smallest ranks.
class RankedPrefixes {
 public:
  RankedPrefixes(const std::vector<text::Document>& left,
                 const std::vector<text::Document>& right, double threshold)
      : threshold_(threshold) {
    const std::vector<text::Document>* sides[] = {&left, &right};
    offsets_.reserve(left.size() + right.size() + 1);
    offsets_.push_back(0);
    for (const auto* side : sides) {
      for (const text::Document& d : *side) {
        offsets_.push_back(offsets_.back() + d.size());
      }
    }
    const size_t total = offsets_.back();

    // Compact every term id once, in first-seen order, counting document
    // frequencies on the way; ranks_ holds compact ids until re-ranked.
    // The lookup is an open-addressing table of compact id + 1 (0 when
    // empty) over at least twice the token count: O(total tokens) memory,
    // whatever the ids, and no per-term allocation.
    ranks_.resize(total);
    const size_t mask = std::bit_ceil(2 * total + 1) - 1;
    std::vector<uint32_t> slots(mask + 1, 0);
    std::vector<text::TermId> term_of;  // compact id -> term id
    std::vector<uint32_t> freq;         // compact id -> document frequency
    size_t k = 0;
    for (const auto* side : sides) {
      for (const text::Document& d : *side) {
        for (text::TermId t : d.terms()) {
          size_t h = Mix64(t) & mask;
          while (slots[h] != 0 && term_of[slots[h] - 1] != t) {
            h = (h + 1) & mask;
          }
          if (slots[h] == 0) {
            term_of.push_back(t);
            freq.push_back(0);
            slots[h] = static_cast<uint32_t>(term_of.size());
          }
          const uint32_t c = slots[h] - 1;
          ++freq[c];
          ranks_[k++] = c;
        }
      }
    }

    // Rank compact ids rare-first; the comparator reads two flat arrays.
    num_terms_ = term_of.size();
    std::vector<uint32_t> by_rank(num_terms_);
    std::iota(by_rank.begin(), by_rank.end(), 0u);
    std::sort(by_rank.begin(), by_rank.end(), [&](uint32_t a, uint32_t b) {
      if (freq[a] != freq[b]) return freq[a] < freq[b];
      return term_of[a] < term_of[b];
    });
    std::vector<uint32_t> rank_of(num_terms_);
    for (uint32_t r = 0; r < num_terms_; ++r) rank_of[by_rank[r]] = r;
    for (uint32_t& x : ranks_) x = rank_of[x];

    // Move each document's prefix to the front of its slice.
    for (size_t d = 0; d + 1 < offsets_.size(); ++d) {
      auto slice = ranks_.begin() + static_cast<std::ptrdiff_t>(offsets_[d]);
      const auto n = static_cast<std::ptrdiff_t>(offsets_[d + 1] - offsets_[d]);
      const auto plen = static_cast<std::ptrdiff_t>(Prefix(d).size());
      std::partial_sort(slice, slice + plen, slice + n);
    }
  }

  /// The prefix ranks of document `d` (left index, or |left| + right index).
  std::span<const uint32_t> Prefix(size_t d) const {
    const size_t lo = offsets_[d];
    return {ranks_.data() + lo,
            PrefixLength(offsets_[d + 1] - lo, threshold_)};
  }

  size_t num_terms() const { return num_terms_; }

 private:
  double threshold_;
  std::vector<size_t> offsets_;
  std::vector<uint32_t> ranks_;
  size_t num_terms_ = 0;
};

}  // namespace

std::vector<JoinPair> PrefixFilterJaccardJoin(
    const std::vector<text::Document>& left,
    const std::vector<text::Document>& right, double threshold,
    unsigned num_threads) {
  assert(threshold > 0.0 && "the prefix filter misses zero-overlap pairs");
  const RankedPrefixes sets(left, right, threshold);

  // Index: rank -> left documents holding it in their prefix, ascending.
  index::CsrBuilder<uint32_t> builder(sets.num_terms());
  for (size_t i = 0; i < left.size(); ++i) {
    for (uint32_t r : sets.Prefix(i)) builder.ReserveEntry(r);
  }
  builder.StartFill();
  for (size_t i = 0; i < left.size(); ++i) {
    for (uint32_t r : sets.Prefix(i)) {
      builder.Push(r, static_cast<uint32_t>(i));
    }
  }
  const index::Csr<uint32_t> prefix_index = std::move(builder).Build();

  // Probe, partitioned over the right side. Each chunk carries its own
  // last_seen dedup array; a given j is probed by exactly one chunk, so
  // no pair is emitted twice.
  auto probe = [&](size_t j_lo, size_t j_hi) {
    std::vector<JoinPair> out;
    std::vector<uint32_t> last_seen(left.size(), kUnassigned);
    for (size_t j = j_lo; j < j_hi; ++j) {
      for (uint32_t r : sets.Prefix(left.size() + j)) {
        for (uint32_t i : prefix_index[r]) {
          if (last_seen[i] == j) continue;  // candidate already verified
          last_seen[i] = static_cast<uint32_t>(j);
          if (std::optional<double> sim =
                  JaccardPairSimilarity(left[i], right[j], threshold)) {
            out.push_back(JoinPair{i, static_cast<uint32_t>(j), *sim});
          }
        }
      }
    }
    return out;
  };

  util::ThreadPool tp(num_threads);
  std::vector<JoinPair> out;
  if (tp.num_threads() == 1) {
    out = probe(0, right.size());
  } else {
    constexpr size_t kProbeGrain = 1024;
    auto chunks = tp.ParallelChunks(0, right.size(), kProbeGrain, probe);
    for (auto& chunk : chunks) {
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  return out;
}

std::vector<JoinPair> AutoJaccardJoin(const std::vector<text::Document>& left,
                                      const std::vector<text::Document>& right,
                                      double threshold,
                                      unsigned num_threads) {
  return PrefixFilterJaccardJoin(left, right, threshold, num_threads);
}

}  // namespace smartcrawl::match
