#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "text/document.h"

/// \file similarity_join.h
/// Jaccard set-similarity join, the entity-resolution predicate of the
/// paper's Sec. 6.1 ("we perform a similarity join between q*(D) and
/// q*(H)_k"), and enrichment's best match per local record.
///
/// `JaccardPairSimilarity` is the one pair predicate. `JaccardJoin` is the
/// size-filtered nested loop over it, kept as the exact reference the
/// tests compare against; whole-table joins (`BestMatchPerLeft`, the
/// plan's sample match) run the prefix-filtered join of prefix_filter.h,
/// which verifies every candidate with the same predicate.

namespace smartcrawl::match {

struct JoinPair {
  uint32_t left;   // index into the left collection
  uint32_t right;  // index into the right collection
  double similarity;
};

/// The pair predicate of every join below: both documents non-empty, the
/// length filter, then Jaccard(a, b) >= threshold. Returns the similarity
/// of a matching pair, nullopt otherwise.
std::optional<double> JaccardPairSimilarity(const text::Document& a,
                                            const text::Document& b,
                                            double threshold);

/// All pairs with Jaccard(left[i], right[j]) >= threshold, in (left, right)
/// scan order. `num_threads` (0 = hardware concurrency, 1 = sequential)
/// partitions the left side; the output is identical for any thread count.
std::vector<JoinPair> JaccardJoin(const std::vector<text::Document>& left,
                                  const std::vector<text::Document>& right,
                                  double threshold, unsigned num_threads = 1);

/// For each left document, the best-matching right index (or -1) with
/// similarity >= threshold. Ties broken toward the lower right index.
/// Runs PrefixFilterJaccardJoin, so it shares its precondition
/// 0 < threshold.
std::vector<int32_t> BestMatchPerLeft(const std::vector<text::Document>& left,
                                      const std::vector<text::Document>& right,
                                      double threshold,
                                      unsigned num_threads = 1);

}  // namespace smartcrawl::match
