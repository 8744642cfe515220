/// Hot-path substrate benchmarks (google-benchmark): the flat-CSR index
/// layout and the adaptive set kernels against the layouts/loops they
/// replaced.
///
///   * BM_IndexBuild            — CSR inverted-index construction cost.
///   * BM_IntersectionSize_*    — count-only kernels by shape: dense/dense
///                                (bitmap AND), skewed (galloping),
///                                balanced (merge), multi-term (k-way).
///   * BM_IntersectPostings_MultiTerm — the materializing path, which is
///                                exactly what the pre-CSR IntersectionSize
///                                did for multi-term queries (reference for
///                                the >= 2x count-only acceptance bar).
///   * BM_RemoveRecordsFanout_* — the estimator delta update: Reference
///                                re-evaluates ContainsAll per
///                                (record x query x sample match) over
///                                vector<vector> rows (the old RemoveRecords
///                                loop); Csr walks the precomputed
///                                forward-aligned decrement array.
///   * BM_KernelMergeCount/BM_KernelGallopCount/BM_KernelBitmapAnd —
///                                the raw set kernels (PairCount in its
///                                merge and gallop regimes, BitmapAndCount)
///                                on bare lists.
///   * BM_PqRepairDrain_Point   — the greedy drain loop over the fan-out
///                                model with point repair (MarkDirty +
///                                recompute-on-pop).
///   * BM_CrawlerInit / BM_EndToEndCrawl — macro check that the substrate
///                                helps a real crawl, not just microloops.
///
/// Scaling: sizes honor SC_SCALE like the figure drivers (default 0.3);
/// `--smoke` forces SC_SCALE=0.05 for CI schema validation. The committed
/// bench/BENCH_hotpath.json is generated at SC_SCALE=1.0 (kernel corpora of
/// 100k documents):
///   SC_SCALE=1.0 bench_hotpath --benchmark_out=bench/BENCH_hotpath.json
///       --benchmark_out_format=json   (one command line)

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "index/csr.h"
#include "index/inverted_index.h"
#include "index/lazy_priority_queue.h"
#include "index/set_kernels.h"
#include "sample/sampler.h"
#include "text/document.h"
#include "util/random.h"

namespace {

using namespace smartcrawl;  // NOLINT

double g_scale = 0.3;  // set in main: --smoke => 0.05, else SC_SCALE

size_t ScaledN(size_t paper_value) {
  double v = static_cast<double>(paper_value) * g_scale;
  auto out = static_cast<size_t>(v + 0.5);
  return out < 64 ? 64 : out;  // keep the bitmap tier reachable
}

// ---- Kernel fixture: stride corpus with known posting densities ---------
//
// Term t appears in every stride[t]-th document, so document frequencies
// (and with them the kernel selection) are controlled exactly:
//   strides 3/4/5   -> density > 1/32: dense, bitmap-backed
//   strides 37/50   -> mid lists (merge between them)
//   strides 1000+   -> tiny lists (gallop against the mid/dense ones)

constexpr size_t kStrides[] = {3, 4, 5, 37, 50, 1000, 2000};
constexpr size_t kVocab = sizeof(kStrides) / sizeof(kStrides[0]);

struct KernelFixture {
  std::vector<text::Document> docs;
  index::InvertedIndex idx;
};

const KernelFixture& Fixture(size_t num_docs) {
  static std::map<size_t, KernelFixture> cache;
  auto it = cache.find(num_docs);
  if (it != cache.end()) return it->second;
  KernelFixture f;
  f.docs.reserve(num_docs);
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<text::TermId> terms;
    for (size_t t = 0; t < kVocab; ++t) {
      if (d % kStrides[t] == 0) terms.push_back(static_cast<text::TermId>(t));
    }
    f.docs.emplace_back(std::move(terms));
  }
  f.idx = index::InvertedIndex(f.docs, kVocab);
  return cache.emplace(num_docs, std::move(f)).first->second;
}

void BM_IndexBuild(benchmark::State& state) {
  const size_t n = ScaledN(static_cast<size_t>(state.range(0)));
  const auto& f = Fixture(n);
  for (auto _ : state) {
    index::InvertedIndex idx(f.docs, kVocab);
    benchmark::DoNotOptimize(idx.num_docs());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexBuild)->Arg(20000)->Arg(100000);

void IntersectionSizeBench(benchmark::State& state,
                           std::vector<text::TermId> q) {
  const size_t n = ScaledN(100000);
  const auto& f = Fixture(n);
  std::sort(q.begin(), q.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.idx.IntersectionSize(q));
  }
  state.counters["docs"] = static_cast<double>(n);
}

void BM_IntersectionSize_BitmapPair(benchmark::State& state) {
  IntersectionSizeBench(state, {0, 1});  // N/3 x N/4, both bitmap-backed
}
BENCHMARK(BM_IntersectionSize_BitmapPair);

void BM_IntersectionSize_GallopSkewed(benchmark::State& state) {
  IntersectionSizeBench(state, {3, 6});  // N/2000 vs N/37: ratio 54 > 32
}
BENCHMARK(BM_IntersectionSize_GallopSkewed);

void BM_IntersectionSize_MergeBalanced(benchmark::State& state) {
  IntersectionSizeBench(state, {3, 4});  // N/37 vs N/50: merge regime
}
BENCHMARK(BM_IntersectionSize_MergeBalanced);

void BM_IntersectionSize_MultiTerm(benchmark::State& state) {
  IntersectionSizeBench(state, {0, 1, 2, 3});  // k-way driver + probes
}
BENCHMARK(BM_IntersectionSize_MultiTerm);

/// Reference for BM_IntersectionSize_MultiTerm: materialize the full
/// intersection and take its size — the pre-CSR implementation of
/// IntersectionSize for multi-term queries.
void BM_IntersectPostings_MultiTerm(benchmark::State& state) {
  const size_t n = ScaledN(100000);
  const auto& f = Fixture(n);
  const std::vector<text::TermId> q = {0, 1, 2, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.idx.IntersectPostings(q).size());
  }
  state.counters["docs"] = static_cast<double>(n);
}
BENCHMARK(BM_IntersectPostings_MultiTerm);

// ---- Raw set kernels -----------------------------------------------------
//
// Same densities as the index fixture above, but as bare lists so the
// benchmark isolates the kernel from CSR lookup.

struct KernelLists {
  std::vector<uint32_t> merge_a, merge_b;        // ~N/37 x ~N/50: merge
  std::vector<uint32_t> gallop_small, gallop_large;  // ~N/2000 vs ~N/37
  std::vector<uint64_t> bitmap_a, bitmap_b;      // N/64 words, half full
};

const KernelLists& BuildKernelLists() {
  static KernelLists* k = nullptr;
  if (k != nullptr) return *k;
  k = new KernelLists();
  const size_t n = ScaledN(100000);
  Rng rng(4242);
  auto make = [&](size_t stride) {
    std::vector<uint32_t> v;
    v.reserve(n / stride + 1);
    for (uint32_t d = 0; d < n; ++d) {
      if (rng.UniformIndex(stride) == 0) v.push_back(d);
    }
    return v;
  };
  k->merge_a = make(37);
  k->merge_b = make(50);
  k->gallop_small = make(2000);
  k->gallop_large = make(37);
  const size_t words = (n + 63) / 64;
  k->bitmap_a.resize(words);
  k->bitmap_b.resize(words);
  for (size_t i = 0; i < words; ++i) {
    k->bitmap_a[i] = rng.Next();
    k->bitmap_b[i] = rng.Next();
  }
  return *k;
}

void BM_KernelMergeCount(benchmark::State& state) {
  const KernelLists& k = BuildKernelLists();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index::PairCount(k.merge_a, k.merge_b, /*counters=*/nullptr));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(k.merge_a.size() + k.merge_b.size()));
}

void BM_KernelGallopCount(benchmark::State& state) {
  const KernelLists& k = BuildKernelLists();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::PairCount(
        k.gallop_small, k.gallop_large, /*counters=*/nullptr));
  }
  // The gallop never touches most of the large list; per-item throughput
  // is still reported against both inputs so it compares with the merge.
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(k.gallop_small.size() + k.gallop_large.size()));
}

void BM_KernelBitmapAnd(benchmark::State& state) {
  const KernelLists& k = BuildKernelLists();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index::BitmapAndCount(k.bitmap_a, k.bitmap_b, /*counters=*/nullptr));
  }
  // Items = set bits represented, i.e. 64 per word of one side.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(k.bitmap_a.size() * 64));
}

BENCHMARK(BM_KernelMergeCount);
BENCHMARK(BM_KernelGallopCount);
BENCHMARK(BM_KernelBitmapAnd);

// ---- RemoveRecords fan-out: ContainsAll re-evaluation vs delta walk -----

struct FanoutFixture {
  // Old layout (what the pre-CSR RemoveRecords walked).
  std::vector<std::vector<uint32_t>> fwd_rows;      // record -> queries
  std::vector<std::vector<uint32_t>> match_rows;    // record -> sample idx
  // New layout.
  index::Csr<uint32_t> forward;
  index::Csr<uint32_t> matches;
  std::vector<uint32_t> dec;  // aligned with forward.values()
  // Shared inputs.
  std::vector<std::vector<text::TermId>> query_terms;
  std::vector<text::Document> sample_docs;
  std::vector<uint32_t> inter0;
  std::vector<uint32_t> order;  // removal order over all records
};

const FanoutFixture& BuildFanoutFixture() {
  static FanoutFixture* f = nullptr;
  if (f != nullptr) return *f;
  f = new FanoutFixture();
  const size_t records = ScaledN(20000);
  const size_t queries = records;
  const size_t samples = records / 10 + 1;
  const size_t vocab = 300;
  constexpr size_t kFanout = 16;     // queries touched per removed record
  constexpr size_t kMatches = 2;     // sample matches per record
  Rng rng(1234);

  f->query_terms.resize(queries);
  for (auto& terms : f->query_terms) {
    for (int t = 0; t < 3; ++t) {
      terms.push_back(static_cast<text::TermId>(rng.UniformIndex(vocab)));
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  }
  f->sample_docs.reserve(samples);
  for (size_t s = 0; s < samples; ++s) {
    std::vector<text::TermId> terms;
    for (int t = 0; t < 12; ++t) {
      terms.push_back(static_cast<text::TermId>(rng.UniformIndex(vocab)));
    }
    f->sample_docs.emplace_back(std::move(terms));
  }

  f->fwd_rows.resize(records);
  f->match_rows.resize(records);
  for (size_t d = 0; d < records; ++d) {
    for (size_t j = 0; j < kFanout; ++j) {
      f->fwd_rows[d].push_back(static_cast<uint32_t>(rng.UniformIndex(queries)));
    }
    std::sort(f->fwd_rows[d].begin(), f->fwd_rows[d].end());
    for (size_t j = 0; j < kMatches; ++j) {
      f->match_rows[d].push_back(
          static_cast<uint32_t>(rng.UniformIndex(samples)));
    }
  }
  f->forward = index::CsrFromRows(f->fwd_rows);
  f->matches = index::CsrFromRows(f->match_rows);

  // Precompute the decrement adjacency exactly as InitSampleState does.
  f->dec.assign(f->forward.num_values(), 0);
  f->inter0.assign(queries, 0);
  std::span<const uint32_t> fwd = f->forward.values();
  for (size_t d = 0; d < records; ++d) {
    auto [lo, hi] = f->forward.row_bounds(d);
    for (size_t i = lo; i < hi; ++i) {
      uint32_t c = 0;
      for (uint32_t s : f->matches[d]) {
        if (f->sample_docs[s].ContainsAll(f->query_terms[fwd[i]])) ++c;
      }
      f->dec[i] = c;
      f->inter0[fwd[i]] += c;
    }
  }

  f->order.resize(records);
  for (size_t d = 0; d < records; ++d) {
    f->order[d] = static_cast<uint32_t>(d);
  }
  // Deterministic shuffle so the walk is not perfectly sequential.
  for (size_t d = records - 1; d > 0; --d) {
    std::swap(f->order[d], f->order[rng.UniformIndex(d + 1)]);
  }
  return *f;
}

/// The pre-CSR inner loop: per removed record, re-run ContainsAll for every
/// (forward query x sample match) over vector<vector> rows.
void BM_RemoveRecordsFanout_Reference(benchmark::State& state) {
  const FanoutFixture& f = BuildFanoutFixture();
  for (auto _ : state) {
    std::vector<uint32_t> inter = f.inter0;
    for (uint32_t d : f.order) {
      for (uint32_t q : f.fwd_rows[d]) {
        for (uint32_t s : f.match_rows[d]) {
          if (f.sample_docs[s].ContainsAll(f.query_terms[q])) {
            if (inter[q] > 0) --inter[q];
          }
        }
      }
    }
    benchmark::DoNotOptimize(inter.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.order.size()));
}
BENCHMARK(BM_RemoveRecordsFanout_Reference);

/// The CSR path: walk the forward row bounds and apply the precomputed
/// value-aligned decrements — no ContainsAll, no pointer chase.
void BM_RemoveRecordsFanout_Csr(benchmark::State& state) {
  const FanoutFixture& f = BuildFanoutFixture();
  std::span<const uint32_t> fwd = f.forward.values();
  for (auto _ : state) {
    std::vector<uint32_t> inter = f.inter0;
    for (uint32_t d : f.order) {
      auto [lo, hi] = f.forward.row_bounds(d);
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t q = fwd[i];
        inter[q] -= std::min(f.dec[i], inter[q]);
      }
    }
    benchmark::DoNotOptimize(inter.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.order.size()));
}
BENCHMARK(BM_RemoveRecordsFanout_Csr);

// ---- Priority-queue repair: lazy point repair under a deep drain --------
//
// The deep-drain regime over the fan-out model above: a bulk retirement
// dirties most of the queue (every record's delta decrements land before
// the next selection), then the greedy drain pops every query. Each
// dirtied id is marked and pays recompute + re-push + re-pop when it
// reaches the top of the heap, inside the drain loop — exactly what
// CrawlSession does after each page.

void BM_PqRepairDrain_Point(benchmark::State& state) {
  const FanoutFixture& f = BuildFanoutFixture();
  const auto queries = static_cast<uint32_t>(f.inter0.size());
  std::span<const uint32_t> fwd = f.forward.values();

  std::vector<uint32_t> inter;
  std::vector<uint32_t> frontier;
  std::vector<uint8_t> stamp(queries, 0);
  size_t recomputes = 0;
  size_t popped = 0;
  for (auto _ : state) {
    inter = f.inter0;
    index::LazyPriorityQueue pq(
        [&](uint32_t q) { return static_cast<double>(inter[q]); });
    for (uint32_t q = 0; q < queries; ++q) {
      pq.Push(q, static_cast<double>(inter[q]));
    }
    // Bulk retirement: every record's decrements, one dedup'd frontier.
    frontier.clear();
    for (uint32_t d : f.order) {
      auto [lo, hi] = f.forward.row_bounds(d);
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t q = fwd[i];
        inter[q] -= std::min(f.dec[i], inter[q]);
        if (stamp[q] == 0) {
          stamp[q] = 1;
          frontier.push_back(q);
        }
      }
    }
    for (uint32_t q : frontier) stamp[q] = 0;
    for (uint32_t q : frontier) pq.MarkDirty(q);
    // Deep drain: pop every query in repaired order.
    uint32_t id = 0;
    double p = 0.0;
    while (pq.PopMax(&id, &p)) ++popped;
    recomputes += pq.num_recomputes();
  }
  const auto iters =
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["recomputes"] = static_cast<double>(recomputes) / iters;
  state.counters["popped"] = static_cast<double>(popped) / iters;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries));
}
BENCHMARK(BM_PqRepairDrain_Point);

// ---- Macro benchmarks ---------------------------------------------------

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

core::SmartCrawlOptions CrawlOptions(const datagen::Scenario& s) {
  core::SmartCrawlOptions opt;
  opt.policy = core::SelectionPolicy::kEstBiased;
  opt.local_text_fields = s.local_text_fields;
  return opt;
}

/// Construction: pool + CSR indices + sample matching + the precomputed
/// delta adjacency.
void BM_CrawlerInit(benchmark::State& state) {
  const CrawlFixture* f = BuildCrawlFixture();
  if (f == nullptr) {
    state.SkipWithError("scenario build failed");
    return;
  }
  for (auto _ : state) {
    auto crawler = core::SmartCrawler::Create(
        &f->scenario.local, CrawlOptions(f->scenario), &f->sample);
    benchmark::DoNotOptimize(crawler.ok());
  }
}
BENCHMARK(BM_CrawlerInit);

/// Init + a full budgeted crawl (every RemoveRecords delta update included).
void BM_EndToEndCrawl(benchmark::State& state) {
  const CrawlFixture* f = BuildCrawlFixture();
  if (f == nullptr) {
    state.SkipWithError("scenario build failed");
    return;
  }
  const size_t budget = ScaledN(200);
  size_t delta_decrements = 0;
  for (auto _ : state) {
    auto crawler = core::SmartCrawler::Create(
        &f->scenario.local, CrawlOptions(f->scenario), &f->sample);
    hidden::BudgetedInterface iface(f->scenario.hidden.get(), budget);
    auto r = crawler.value()->Crawl(&iface, budget);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) delta_decrements = r->stats.delta_decrements;
  }
  state.counters["delta_decrements"] =
      static_cast<double>(delta_decrements);
}
BENCHMARK(BM_EndToEndCrawl);

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
