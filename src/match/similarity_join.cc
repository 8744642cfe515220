#include "match/similarity_join.h"

#include "match/prefix_filter.h"
#include "util/thread_pool.h"

namespace smartcrawl::match {

namespace {

/// Length filter: Jaccard(a,b) >= t implies t*|a| <= |b| <= |a|/t.
bool PassesLengthFilter(size_t la, size_t lb, double threshold) {
  double a = static_cast<double>(la);
  double b = static_cast<double>(lb);
  return b >= threshold * a && a >= threshold * b;
}

/// The (i outer, j inner) scan restricted to left rows [lo, hi).
std::vector<JoinPair> JoinRange(const std::vector<text::Document>& left,
                                const std::vector<text::Document>& right,
                                double threshold, size_t lo, size_t hi) {
  std::vector<JoinPair> out;
  for (size_t i = lo; i < hi; ++i) {
    if (left[i].empty()) continue;
    for (uint32_t j = 0; j < right.size(); ++j) {
      if (std::optional<double> sim =
              JaccardPairSimilarity(left[i], right[j], threshold)) {
        out.push_back(JoinPair{static_cast<uint32_t>(i), j, *sim});
      }
    }
  }
  return out;
}

}  // namespace

std::optional<double> JaccardPairSimilarity(const text::Document& a,
                                            const text::Document& b,
                                            double threshold) {
  if (a.empty() || b.empty()) return std::nullopt;
  if (!PassesLengthFilter(a.size(), b.size(), threshold)) return std::nullopt;
  const double sim = a.Jaccard(b);
  if (sim < threshold) return std::nullopt;
  return sim;
}

std::vector<JoinPair> JaccardJoin(const std::vector<text::Document>& left,
                                  const std::vector<text::Document>& right,
                                  double threshold, unsigned num_threads) {
  util::ThreadPool tp(num_threads);
  if (tp.num_threads() == 1) {
    return JoinRange(left, right, threshold, 0, left.size());
  }
  // Partition the left side; per-chunk pair lists concatenated in chunk
  // order reproduce the sequential (i outer, j inner) output exactly.
  constexpr size_t kLeftGrain = 128;
  auto chunks = tp.ParallelChunks(
      0, left.size(), kLeftGrain, [&](size_t lo, size_t hi) {
        return JoinRange(left, right, threshold, lo, hi);
      });
  std::vector<JoinPair> out;
  for (auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<int32_t> BestMatchPerLeft(const std::vector<text::Document>& left,
                                      const std::vector<text::Document>& right,
                                      double threshold, unsigned num_threads) {
  std::vector<int32_t> best(left.size(), -1);
  std::vector<double> best_sim(left.size(), 0.0);
  for (const JoinPair& p :
       PrefixFilterJaccardJoin(left, right, threshold, num_threads)) {
    if (best[p.left] == -1 || p.similarity > best_sim[p.left]) {
      best[p.left] = static_cast<int32_t>(p.right);
      best_sim[p.left] = p.similarity;
    }
  }
  return best;
}

}  // namespace smartcrawl::match
