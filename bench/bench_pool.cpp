/// Build-phase benchmarks (google-benchmark): parallel FP-growth projection
/// mining over the flat first-child/next-sibling FP-tree, and the crawler
/// setup stages that share one thread pool.
///
///   * BM_MineFpGrowth/{1,2,4}     — the shipped miner (flat tree, scratch
///                                   reuse, parallel projection mining) at
///                                   1/2/4 worker threads.
///   * BM_GenerateQueryPool/{1,2,4} — full pool generation (transactions,
///                                   mining, postings, dominance pruning)
///                                   on one shared pool.
///   * BM_CrawlerInitEstimator/{1,2,4} — SmartCrawler::Create for the
///                                   estimator policies: pool + indices +
///                                   sample matching (InitSampleState).
///   * BM_CrawlerInitIdeal/{1,2,4} — SmartCrawler::Create for QSEL-IDEAL:
///                                   per-query oracle covers, now staged
///                                   fetch/intern/match (InitIdealState).
///
/// Scaling: sizes honor SC_SCALE like the figure drivers (default 0.3);
/// `--smoke` forces SC_SCALE=0.05 for CI schema validation. The committed
/// bench/BENCH_pool.json is generated at SC_SCALE=1.0:
///   SC_SCALE=1.0 bench_pool --benchmark_out=bench/BENCH_pool.json
///       --benchmark_out_format=json   (one command line)

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/query_pool.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "fpm/itemset.h"
#include "sample/sampler.h"
#include "text/dictionary.h"
#include "text/document.h"
#include "util/random.h"
#include "util/zipf.h"

namespace {

using namespace smartcrawl;  // NOLINT

double g_scale = 0.3;  // set in main: --smoke => 0.05, else SC_SCALE

size_t ScaledN(size_t paper_value) {
  double v = static_cast<double>(paper_value) * g_scale;
  auto out = static_cast<size_t>(v + 0.5);
  return out < 64 ? 64 : out;
}

// ---- Mining fixture: Zipf-skewed transactions ---------------------------
//
// Heavy-head vocabulary so the global tree has long shared prefixes and
// deep, uneven conditional trees — the workload shape of keyword itemset
// mining over record titles (and the worst case for per-item balance,
// which is what the chunked projection parallelism has to absorb).

struct MiningFixture {
  std::vector<std::vector<text::TermId>> txns;
  fpm::MiningOptions options;
};

const MiningFixture& BuildMiningFixture() {
  static MiningFixture* f = nullptr;
  if (f != nullptr) return *f;
  f = new MiningFixture();
  const size_t num_txns = ScaledN(60000);
  const size_t vocab = ScaledN(1500);
  Rng rng(4242);
  ZipfDistribution zipf(vocab, 1.1);
  f->txns.reserve(num_txns);
  for (size_t i = 0; i < num_txns; ++i) {
    size_t len = 3 + rng.UniformIndex(8);
    std::vector<text::TermId> t;
    t.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<text::TermId>(zipf.Sample(rng)));
    }
    f->txns.push_back(std::move(t));
  }
  f->options.min_support = 3;
  f->options.max_itemset_size = 4;
  return *f;
}

/// The shipped miner: flat tree, scratch reuse, parallel projections.
void BM_MineFpGrowth(benchmark::State& state) {
  const MiningFixture& f = BuildMiningFixture();
  fpm::MiningOptions opt = f.options;
  opt.num_threads = static_cast<unsigned>(state.range(0));
  size_t itemsets = 0;
  for (auto _ : state) {
    fpm::MiningResult r = fpm::MineFrequentItemsets(f.txns, opt);
    itemsets = r.itemsets.size();
    benchmark::DoNotOptimize(r.itemsets.data());
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.txns.size()));
}
BENCHMARK(BM_MineFpGrowth)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---- Pool generation ----------------------------------------------------

struct PoolFixture {
  text::TermDictionary dict;
  std::vector<text::Document> docs;
};

const PoolFixture& BuildPoolFixture() {
  static PoolFixture* f = nullptr;
  if (f != nullptr) return *f;
  f = new PoolFixture();
  const size_t num_docs = ScaledN(20000);
  const size_t vocab = ScaledN(3000);
  Rng rng(515);
  ZipfDistribution zipf(vocab, 1.05);
  for (size_t i = 0; i < num_docs; ++i) {
    size_t len = 2 + rng.UniformIndex(6);
    std::string textv;
    for (size_t j = 0; j < len; ++j) {
      if (j != 0) textv += ' ';
      textv += "w" + std::to_string(zipf.Sample(rng));
    }
    f->docs.push_back(text::Document::FromText(textv, f->dict));
  }
  return *f;
}

/// Full pool generation — transaction build, itemset mining, posting-list
/// construction, dominance pruning — all on one shared pool.
void BM_GenerateQueryPool(benchmark::State& state) {
  const PoolFixture& f = BuildPoolFixture();
  core::QueryPoolOptions opt;
  opt.num_threads = static_cast<unsigned>(state.range(0));
  size_t pool_size = 0;
  for (auto _ : state) {
    core::QueryPool pool = core::GenerateQueryPool(f.docs, f.dict, opt);
    pool_size = pool.size();
    benchmark::DoNotOptimize(pool.queries.data());
  }
  state.counters["pool_size"] = static_cast<double>(pool_size);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.docs.size()));
}
BENCHMARK(BM_GenerateQueryPool)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---- Crawler construction -----------------------------------------------

struct CrawlFixture {
  datagen::Scenario scenario;
  sample::HiddenSample sample;
};

const CrawlFixture* BuildCrawlFixture() {
  static CrawlFixture* f = nullptr;
  if (f != nullptr) return f;
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = ScaledN(30000);
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = ScaledN(12000);
  cfg.local_size = ScaledN(2000);
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = 77;
  auto s = datagen::BuildDblpScenario(cfg);
  if (!s.ok()) return nullptr;
  f = new CrawlFixture{std::move(s).value(), {}};
  f->sample = sample::BernoulliSample(*f->scenario.hidden, 0.02, 9);
  return f;
}

/// Estimator-policy construction: pool + CSR indices + sample matching
/// (InitSampleState) on the shared build pool.
void BM_CrawlerInitEstimator(benchmark::State& state) {
  const CrawlFixture* f = BuildCrawlFixture();
  if (f == nullptr) {
    state.SkipWithError("scenario build failed");
    return;
  }
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = f->scenario.local_text_fields;
  opt.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto crawler = core::SmartCrawler::Create(&f->scenario.local, opt,
                                              &f->sample);
    benchmark::DoNotOptimize(crawler.ok());
  }
}
BENCHMARK(BM_CrawlerInitEstimator)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// QSEL-IDEAL construction: per-query oracle covers via the staged
/// fetch / intern / match InitIdealState on the shared build pool.
void BM_CrawlerInitIdeal(benchmark::State& state) {
  const CrawlFixture* f = BuildCrawlFixture();
  if (f == nullptr) {
    state.SkipWithError("scenario build failed");
    return;
  }
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kIdeal;
  opt.local_text_fields = f->scenario.local_text_fields;
  opt.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto crawler = core::SmartCrawler::Create(
        &f->scenario.local, opt, nullptr, f->scenario.hidden.get());
    benchmark::DoNotOptimize(crawler.ok());
  }
}
BENCHMARK(BM_CrawlerInitIdeal)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

/// Custom main: accepts `--smoke` (stripped before google-benchmark sees
/// the args) to force the CI smoke scale regardless of SC_SCALE.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  auto smoke_end = std::remove_if(args.begin(), args.end(), [](char* a) {
    return std::string_view(a) == "--smoke";
  });
  const bool smoke = smoke_end != args.end();
  args.erase(smoke_end, args.end());
  g_scale = smoke ? 0.05 : smartcrawl::benchx::Scale();

  int pruned_argc = static_cast<int>(args.size());
  benchmark::Initialize(&pruned_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pruned_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
