#pragma once

#include <vector>

#include "match/similarity_join.h"
#include "text/document.h"

/// \file prefix_filter.h
/// Prefix-filtered set-similarity join (PPJoin-style candidate generation),
/// the one implementation behind every whole-table Jaccard join: the
/// plan's D×Hs sample match and enrichment's `BestMatchPerLeft`.
///
/// The classic prefix-filter principle (cited as indexing for scalable
/// record linkage in the paper's related work [16]): order each set's
/// tokens by ascending global frequency; two sets with Jaccard >= t must
/// share a token within their first |r| - ceil(t*|r|) + 1 tokens. Indexing
/// only those prefixes prunes the candidate space by orders of magnitude;
/// every candidate is then verified exactly with `JaccardPairSimilarity`,
/// so the result equals the nested-loop `JaccardJoin`.
///
/// Storage is flat: term ids are compacted once into dense frequency
/// ranks, each document's prefix is the smallest ranks of its own slice,
/// and the rank -> left-document index is CSR. Memory is
/// O(distinct terms + total tokens), whatever the magnitude of the term ids.

namespace smartcrawl::match {

/// All pairs with Jaccard(left[i], right[j]) >= threshold, sorted by
/// (left, right) — the same pairs, order and similarity doubles as
/// JaccardJoin. Precondition: 0 < threshold (IsValidJaccardThreshold in
/// er_config.h); at 0 every non-empty pair matches, including pairs that
/// share no token, which no prefix index can find. `num_threads` (0 =
/// hardware concurrency, 1 = sequential) partitions the probe side; the
/// final (left, right) sort makes the output independent of the
/// partitioning.
std::vector<JoinPair> PrefixFilterJaccardJoin(
    const std::vector<text::Document>& left,
    const std::vector<text::Document>& right, double threshold,
    unsigned num_threads = 1);

/// Forwards to PrefixFilterJaccardJoin. Kept for callers written against
/// the former size-based dispatch.
std::vector<JoinPair> AutoJaccardJoin(const std::vector<text::Document>& left,
                                      const std::vector<text::Document>& right,
                                      double threshold,
                                      unsigned num_threads = 1);

}  // namespace smartcrawl::match
