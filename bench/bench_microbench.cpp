/// Engine microbenchmarks (google-benchmark):
///   * inverted-index intersection,
///   * FP-growth vs Apriori mining cost (Sec. 3.1 pool generation),
///   * lazy priority queue + delta updates vs eager full re-scan
///     (the Sec. 6.3 on-demand updating mechanism),
///   * query-pool generation end to end,
///   * Jaccard similarity joins: the nested-loop reference and enrichment's
///     prefix-filtered best match,
///   * tokenizer throughput,
///   * thread sweeps (Arg = num_threads) for the parallel substrate:
///     pool generation, crawler init (sample matching), similarity joins.
///     Run with --benchmark_filter=Threads --benchmark_format=json to
///     regenerate bench/BENCH_threads.json.

#include <array>
#include <unordered_set>

#include <benchmark/benchmark.h>

#include "core/estimator.h"
#include "core/query_pool.h"
#include "core/smart_crawler.h"
#include "util/hypergeometric.h"
#include "datagen/dblp_gen.h"
#include "datagen/scenario.h"
#include "fpm/itemset.h"
#include "index/inverted_index.h"
#include "index/lazy_priority_queue.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace smartcrawl;  // NOLINT

std::vector<text::Document> MakeDocs(size_t n, text::TermDictionary* dict) {
  datagen::DblpOptions opt;
  opt.corpus_size = n;
  opt.seed = 123;
  table::Table t = datagen::GenerateDblpCorpus(opt);
  return t.BuildDocuments(*dict, {"title", "venue", "authors"});
}

void BM_InvertedIndexBuild(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), &dict);
  for (auto _ : state) {
    index::InvertedIndex idx(docs, dict.size());
    benchmark::DoNotOptimize(idx.num_docs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InvertedIndexBuild)->Arg(1000)->Arg(10000);

void BM_InvertedIndexIntersect(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(5000, &dict);
  index::InvertedIndex idx(docs, dict.size());
  // Random 2-term queries drawn from document contents.
  Rng rng(7);
  std::vector<std::vector<text::TermId>> queries;
  for (int i = 0; i < 256; ++i) {
    const auto& d = docs[rng.UniformIndex(docs.size())];
    if (d.size() < 2) continue;
    text::TermId a = d.terms()[rng.UniformIndex(d.size())];
    text::TermId b = d.terms()[rng.UniformIndex(d.size())];
    std::vector<text::TermId> q = {std::min(a, b), std::max(a, b)};
    queries.push_back(q);
  }
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx.IntersectionSize(queries[qi++ % queries.size()]));
  }
}
BENCHMARK(BM_InvertedIndexIntersect);

void BM_FpGrowth(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), &dict);
  std::vector<std::vector<text::TermId>> txns;
  for (const auto& d : docs) txns.push_back(d.terms());
  fpm::MiningOptions opt;
  opt.min_support = 2;
  opt.max_itemset_size = 3;
  for (auto _ : state) {
    auto result = fpm::MineFrequentItemsets(txns, opt);
    benchmark::DoNotOptimize(result.itemsets.size());
  }
}
BENCHMARK(BM_FpGrowth)->Arg(500)->Arg(2000);

void BM_Apriori(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), &dict);
  std::vector<std::vector<text::TermId>> txns;
  for (const auto& d : docs) txns.push_back(d.terms());
  fpm::MiningOptions opt;
  opt.min_support = 2;
  opt.max_itemset_size = 3;
  for (auto _ : state) {
    auto result = fpm::MineFrequentItemsetsApriori(txns, opt);
    benchmark::DoNotOptimize(result.itemsets.size());
  }
}
BENCHMARK(BM_Apriori)->Arg(500);

void BM_QueryPoolGeneration(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), &dict);
  core::QueryPoolOptions opt;
  for (auto _ : state) {
    auto pool = core::GenerateQueryPool(docs, dict, opt);
    benchmark::DoNotOptimize(pool.size());
  }
}
BENCHMARK(BM_QueryPoolGeneration)->Arg(1000)->Arg(5000);

/// The Sec. 6.3 selection loop: lazy PQ with delta updates.
void BM_LazyPqSelection(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<double> base(n);
  for (auto& b : base) b = static_cast<double>(rng.UniformIndex(500) + 1);
  for (auto _ : state) {
    std::vector<double> prio = base;
    index::LazyPriorityQueue pq([&](uint32_t q) { return prio[q]; });
    for (uint32_t i = 0; i < n; ++i) pq.Push(i, prio[i]);
    Rng decay(23);
    uint32_t id;
    double p;
    size_t pops = 0;
    while (pq.PopMax(&id, &p)) {
      ++pops;
      // Simulate covering records shared with ~8 other queries.
      for (int j = 0; j < 8; ++j) {
        uint32_t v = static_cast<uint32_t>(decay.UniformIndex(n));
        if (prio[v] > 0) {
          prio[v] -= 1.0;
          pq.MarkDirty(v);
        }
      }
    }
    benchmark::DoNotOptimize(pops);
  }
}
BENCHMARK(BM_LazyPqSelection)->Arg(10000)->Arg(100000);

/// The naive alternative: rescan all queries to find the max each round.
void BM_EagerRescanSelection(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<double> base(n);
  for (auto& b : base) b = static_cast<double>(rng.UniformIndex(500) + 1);
  for (auto _ : state) {
    std::vector<double> prio = base;
    std::vector<uint8_t> alive(n, 1);
    Rng decay(23);
    size_t pops = 0;
    for (size_t round = 0; round < n; ++round) {
      size_t best = n;
      double best_p = -1;
      for (size_t i = 0; i < n; ++i) {
        if (alive[i] && prio[i] > best_p) {
          best_p = prio[i];
          best = i;
        }
      }
      if (best == n) break;
      alive[best] = 0;
      ++pops;
      for (int j = 0; j < 8; ++j) {
        size_t v = decay.UniformIndex(n);
        if (prio[v] > 0) prio[v] -= 1.0;
      }
    }
    benchmark::DoNotOptimize(pops);
  }
}
BENCHMARK(BM_EagerRescanSelection)->Arg(10000);

void BM_JaccardJoin(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(1000, &dict);
  std::vector<text::Document> left(docs.begin(), docs.begin() + 500);
  std::vector<text::Document> right(docs.begin() + 400, docs.end());
  for (auto _ : state) {
    auto pairs = match::JaccardJoin(left, right, 0.9);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_JaccardJoin);

void BM_EstimatorEvaluation(benchmark::State& state) {
  // The inner loop of query selection: one benefit estimate.
  core::EstimatorContext ctx;
  ctx.k = 100;
  ctx.theta = 0.005;
  ctx.alpha = 0.1;
  Rng rng(3);
  std::vector<std::array<uint32_t, 3>> inputs;
  for (int i = 0; i < 512; ++i) {
    inputs.push_back({static_cast<uint32_t>(rng.UniformIndex(2000)),
                      static_cast<uint32_t>(rng.UniformIndex(20)),
                      static_cast<uint32_t>(rng.UniformIndex(10))});
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& in = inputs[i++ % inputs.size()];
    benchmark::DoNotOptimize(core::EstimateBenefit(
        core::EstimatorKind::kBiased, in[0], in[1], in[2], ctx));
  }
}
BENCHMARK(BM_EstimatorEvaluation);

void BM_FisherNchMean(benchmark::State& state) {
  // The ω != 1 estimator path: exact noncentral hypergeometric mean.
  Rng rng(9);
  for (auto _ : state) {
    uint64_t N = 1000 + rng.UniformIndex(20000);
    uint64_t n = rng.UniformIndex(500);
    benchmark::DoNotOptimize(FisherNchMean(N, 100, n, 2.5));
  }
}
BENCHMARK(BM_FisherNchMean);

// ---- Thread sweeps: Arg = num_threads (1 = today's sequential path). ----
// Every parallel path is bit-identical to the sequential one, so these
// measure pure scheduling overhead/speedup.

void BM_ParallelForOverheadThreads(benchmark::State& state) {
  util::ThreadPool tp(static_cast<unsigned>(state.range(0)));
  std::vector<double> out(1 << 16);
  for (auto _ : state) {
    tp.ParallelFor(0, out.size(), 1024, [&](size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForOverheadThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_QueryPoolGenerationThreads(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(5000, &dict);
  core::QueryPoolOptions opt;
  opt.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto pool = core::GenerateQueryPool(docs, dict, opt);
    benchmark::DoNotOptimize(pool.size());
  }
}
BENCHMARK(BM_QueryPoolGenerationThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CrawlerInitThreads(benchmark::State& state) {
  // SmartCrawler::Create cost: pool generation + indices + the
  // O(|D| x |Hs|) sample-matching statistics.
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 30000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 12000;
  cfg.local_size = 2000;
  cfg.top_k = 100;
  cfg.seed = 41;
  auto s = datagen::BuildDblpScenario(cfg);
  if (!s.ok()) {
    state.SkipWithError("scenario build failed");
    return;
  }
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 6);
  for (auto _ : state) {
    core::SmartCrawlOptions opt;
    opt.policy = core::SelectionPolicy::kEstBiased;
    opt.local_text_fields = s->local_text_fields;
    opt.num_threads = static_cast<unsigned>(state.range(0));
    auto crawler = core::SmartCrawler::Create(&s->local, std::move(opt),
                                              &sample);
    benchmark::DoNotOptimize(crawler.ok());
  }
}
BENCHMARK(BM_CrawlerInitThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_JaccardJoinThreads(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(3000, &dict);
  std::vector<text::Document> left(docs.begin(), docs.begin() + 1500);
  std::vector<text::Document> right(docs.begin() + 1200, docs.end());
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto pairs = match::JaccardJoin(left, right, 0.8, threads);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_JaccardJoinThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The flat prefix-filter join every whole-table join runs.
void BM_PrefixFilterJoinThreads(benchmark::State& state) {
  text::TermDictionary dict;
  auto docs = MakeDocs(8000, &dict);
  std::vector<text::Document> left(docs.begin(), docs.begin() + 4000);
  std::vector<text::Document> right(docs.begin() + 3000, docs.end());
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto pairs = match::PrefixFilterJaccardJoin(left, right, 0.8, threads);
    benchmark::DoNotOptimize(pairs.size());
  }
}
BENCHMARK(BM_PrefixFilterJoinThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BestMatchPerLeft(benchmark::State& state) {
  // Enrichment's join at the deepenrich shape: 3000 local records (match
  // fields only) against ~10k crawled records (every field), tau 0.6.
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 72600;
  cfg.corpus.seed = 7932;
  cfg.corpus.db_community_fraction = 0.3;
  cfg.hidden_size = 30000;
  cfg.local_size = 3000;
  cfg.error_rate = 0.2;
  cfg.seed = 1;
  auto s = datagen::BuildDblpScenario(cfg);
  if (!s.ok()) {
    state.SkipWithError("scenario build failed");
    return;
  }
  text::TermDictionary dict;
  auto left = s->local.BuildDocuments(dict, s->local_text_fields);
  // A crawl fetches the local records' hidden copies plus unrelated
  // neighbours: copies first, then other hidden records up to ~10k.
  std::unordered_set<table::EntityId> local_entities;
  for (const auto& rec : s->local.records()) {
    local_entities.insert(rec.entity_id);
  }
  const auto& hidden = s->hidden->OracleTable().records();
  std::vector<const table::Record*> crawled;
  for (const auto& rec : hidden) {
    if (local_entities.count(rec.entity_id) != 0) crawled.push_back(&rec);
  }
  for (const auto& rec : hidden) {
    if (crawled.size() == 10000) break;
    if (local_entities.count(rec.entity_id) == 0) crawled.push_back(&rec);
  }
  std::vector<text::Document> right;
  for (const table::Record* rec : crawled) {
    right.push_back(text::Document::FromText(Join(rec->fields, " "), dict));
  }
  for (auto _ : state) {
    auto best = match::BestMatchPerLeft(left, right, 0.6);
    benchmark::DoNotOptimize(best.data());
  }
}
BENCHMARK(BM_BestMatchPerLeft)->Unit(benchmark::kMillisecond);

void BM_Tokenizer(benchmark::State& state) {
  std::string text_block =
      "Progressive Deep Web Crawling Through Keyword Queries For Data "
      "Enrichment, SIGMOD 2019; the quick brown fox jumps over the lazy "
      "dog while crawling hidden databases with top-k constraints.";
  for (auto _ : state) {
    auto toks = text::Tokenize(text_block);
    benchmark::DoNotOptimize(toks.size());
  }
  state.SetBytesProcessed(state.iterations() * text_block.size());
}
BENCHMARK(BM_Tokenizer);

}  // namespace
