#include "core/query_pool.h"

#include <algorithm>
#include <span>
#include <utility>

#include "fpm/itemset.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace smartcrawl::core {

std::string Query::Display() const {
  std::string out;
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (i > 0) out += ' ';
    out += keywords[i];
  }
  return out;
}

namespace {

/// Builds the keyword-string form of a term vector.
std::vector<std::string> TermsToKeywords(const std::vector<text::TermId>& terms,
                                         const text::TermDictionary& dict) {
  std::vector<std::string> out;
  out.reserve(terms.size());
  for (text::TermId t : terms) out.push_back(dict.TermOf(t));
  return out;
}

}  // namespace

QueryPool GenerateQueryPool(const std::vector<text::Document>& local_docs,
                            const text::TermDictionary& dict,
                            const QueryPoolOptions& options) {
  util::ThreadPool tp(options.num_threads);
  return GenerateQueryPool(local_docs, dict, options, &tp);
}

QueryPool GenerateQueryPool(const std::vector<text::Document>& local_docs,
                            const text::TermDictionary& dict,
                            const QueryPoolOptions& options,
                            util::ThreadPool* thread_pool) {
  QueryPool pool;
  util::ThreadPool& tp = *thread_pool;
  constexpr size_t kDocGrain = 1024;
  constexpr size_t kPostingGrain = 256;

  // Mined queries: frequent keyword itemsets with support >= t.
  fpm::MiningResult mined;
  {
    std::vector<std::vector<text::TermId>> txns(local_docs.size());
    tp.ParallelFor(0, local_docs.size(), kDocGrain,
                   [&](size_t i) { txns[i] = local_docs[i].terms(); });
    fpm::MiningOptions mopt;
    mopt.min_support = options.min_support;
    mopt.max_itemset_size = options.max_itemset_size;
    mopt.max_results = options.max_mined_itemsets;
    mined = fpm::MineFrequentItemsets(txns, mopt, &tp);
    pool.mining_truncated = mined.truncated;
  }

  // Candidate term sets in pool order: Q_naive first (one specific query
  // per record — all its keywords), then the mined itemsets. Each is a view
  // into `local_docs` or `mined`, which outlive it.
  std::vector<std::span<const text::TermId>> term_sets;
  std::vector<uint8_t> is_naive;
  term_sets.reserve(local_docs.size() + mined.itemsets.size());
  is_naive.reserve(term_sets.capacity());
  for (const auto& doc : local_docs) {
    if (doc.terms().empty()) continue;
    term_sets.emplace_back(doc.terms());
    is_naive.push_back(1);
  }
  for (const auto& fis : mined.itemsets) {
    if (fis.items.empty()) continue;
    term_sets.emplace_back(fis.items);
    is_naive.push_back(0);
  }

  // Deduplicate, keeping each term set's first occurrence: sorting
  // (hash, index) pairs puts every repeat right after its first. Hash-only:
  // a 64-bit collision between distinct term sets is negligible at pool
  // scales (<= millions of queries).
  {
    std::vector<std::pair<uint64_t, uint32_t>> keyed(term_sets.size());
    for (size_t i = 0; i < term_sets.size(); ++i) {
      keyed[i] = {HashBytes64(term_sets[i].data(), term_sets[i].size_bytes()),
                  static_cast<uint32_t>(i)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<uint8_t> repeat(term_sets.size(), 0);
    for (size_t j = 1; j < keyed.size(); ++j) {
      if (keyed[j].first == keyed[j - 1].first) repeat[keyed[j].second] = 1;
    }
    size_t n = 0;
    for (size_t i = 0; i < term_sets.size(); ++i) {
      if (repeat[i]) continue;
      term_sets[n] = term_sets[i];
      is_naive[n] = is_naive[i];
      ++n;
    }
    term_sets.resize(n);
    is_naive.resize(n);
  }

  // q(D) of every candidate through a local inverted index, appended into
  // one flat buffer: candidate i's list is flat[offsets[i], offsets[i + 1]).
  // In parallel, each chunk of candidates appends into its own buffer and
  // the buffers are concatenated in index order, so the layout is the
  // sequential one bit for bit.
  index::InvertedIndex local_index(local_docs, dict.size());
  const size_t num_candidates = term_sets.size();
  std::vector<size_t> offsets(num_candidates + 1, 0);
  std::vector<index::DocIndex> flat;
  {
    const size_t grain = tp.num_threads() > 1
                             ? kPostingGrain
                             : std::max<size_t>(num_candidates, 1);
    std::vector<std::vector<index::DocIndex>> chunks = tp.ParallelChunks(
        0, num_candidates, grain, [&](size_t lo, size_t hi) {
          std::vector<index::DocIndex> buf;
          for (size_t i = lo; i < hi; ++i) {
            offsets[i + 1] = local_index.AppendIntersection(term_sets[i], &buf);
          }
          return buf;
        });
    for (size_t i = 0; i < num_candidates; ++i) offsets[i + 1] += offsets[i];
    if (chunks.size() == 1) {
      flat = std::move(chunks[0]);
    } else {
      flat.reserve(offsets.back());
      for (const auto& buf : chunks) {
        flat.insert(flat.end(), buf.begin(), buf.end());
      }
    }
  }
  auto postings = [&](size_t i) {
    return std::span<const index::DocIndex>(flat.data() + offsets[i],
                                            offsets[i + 1] - offsets[i]);
  };

  // |q(D)| = 0: outside the considered space Q.
  std::vector<uint8_t> keep(num_candidates, 1);
  for (size_t i = 0; i < num_candidates; ++i) {
    if (offsets[i + 1] == offsets[i]) keep[i] = 0;
  }

  // Dominance pruning: bucket queries by their exact q(D) set; within a
  // bucket keep only queries not strictly contained (keyword-wise) in
  // another kept query. Sorting (q(D) hash, index) pairs makes each bucket
  // one contiguous run.
  if (options.dominance_prune) {
    std::vector<std::pair<uint64_t, uint32_t>> keyed;
    keyed.reserve(num_candidates);
    for (size_t i = 0; i < num_candidates; ++i) {
      if (!keep[i]) continue;
      const std::span<const index::DocIndex> p = postings(i);
      keyed.emplace_back(HashBytes64(p.data(), p.size_bytes()),
                         static_cast<uint32_t>(i));
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::pair<size_t, size_t>> runs;  // [lo, hi) into keyed
    for (size_t lo = 0; lo < keyed.size();) {
      size_t hi = lo + 1;
      while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
      if (hi - lo >= 2) runs.emplace_back(lo, hi);
      lo = hi;
    }
    // Runs are disjoint index sets, so pruning them concurrently only ever
    // writes disjoint keep[] slots; the per-bucket logic itself is
    // sequential.
    tp.ParallelFor(0, runs.size(), 16, [&](size_t r) {
      auto* const bucket = keyed.data() + runs[r].first;
      const size_t size = runs[r].second - runs[r].first;
      // Longest term sets first: they can only dominate, not be dominated
      // by, later (shorter) ones.
      std::sort(bucket, bucket + size, [&](const auto& x, const auto& y) {
        const auto& a = term_sets[x.second];
        const auto& c = term_sets[y.second];
        if (a.size() != c.size()) return a.size() > c.size();
        return std::ranges::lexicographical_compare(a, c);
      });
      // The kept queries are compacted to the front of the run in place.
      size_t num_kept = 0;
      for (size_t j = 0; j < size; ++j) {
        const uint32_t qi = bucket[j].second;
        bool dominated = false;
        for (size_t k = 0; k < num_kept; ++k) {
          const uint32_t kj = bucket[k].second;
          if (term_sets[kj].size() <= term_sets[qi].size()) continue;
          // Verify the posting sets are truly equal (guard against hash
          // collision) and that kj's keywords are a superset of qi's.
          if (!std::ranges::equal(postings(kj), postings(qi))) continue;
          if (std::includes(term_sets[kj].begin(), term_sets[kj].end(),
                            term_sets[qi].begin(), term_sets[qi].end())) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          keep[qi] = 0;
        } else {
          bucket[num_kept++] = bucket[j];
        }
      }
    });
  }

  // Materialize the pool. The kept posting lists are frozen into one flat
  // CSR block — the crawl loop only ever reads them as spans.
  size_t num_kept = 0;
  for (size_t i = 0; i < num_candidates; ++i) {
    if (keep[i]) ++num_kept;
  }
  index::CsrBuilder<index::DocIndex> posting_builder(num_kept);
  size_t row = 0;
  for (size_t i = 0; i < num_candidates; ++i) {
    if (keep[i]) posting_builder.ReserveEntries(row++, postings(i).size());
  }
  posting_builder.StartFill();
  row = 0;
  for (size_t i = 0; i < num_candidates; ++i) {
    if (!keep[i]) continue;
    Query q;
    q.terms.assign(term_sets[i].begin(), term_sets[i].end());
    q.keywords = TermsToKeywords(q.terms, dict);
    q.is_naive = is_naive[i] != 0;
    pool.local_frequency.push_back(
        static_cast<uint32_t>(postings(i).size()));
    for (index::DocIndex d : postings(i)) posting_builder.Push(row, d);
    ++row;
    pool.queries.push_back(std::move(q));
  }
  pool.local_postings = std::move(posting_builder).Build();
  pool.kernel_stats = local_index.kernel_stats();
  return pool;
}

}  // namespace smartcrawl::core
