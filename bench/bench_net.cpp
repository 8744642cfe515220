/// Transport-stack microbenchmarks (google-benchmark):
///   * cache hit vs miss cost of net::CachingInterface,
///   * per-query retry overhead of the resilient client at fault rates
///     0% / 10% / 30% (Arg = fault percent) — everything on the
///     simulated clock, so this measures CPU cost, not waiting.
/// Run with --benchmark_format=json to regenerate bench/BENCH_net.json.

#include <cstdint>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "datagen/dblp_gen.h"
#include "hidden/hidden_database.h"
#include "net/caching_interface.h"
#include "net/fault_injection.h"
#include "net/resilient_client.h"
#include "util/random.h"

namespace {

using namespace smartcrawl;  // NOLINT

hidden::HiddenDatabase MakeDb(size_t n) {
  datagen::DblpOptions opt;
  opt.corpus_size = n;
  opt.seed = 123;
  hidden::HiddenDatabaseOptions hopt;
  hopt.top_k = 50;
  return hidden::HiddenDatabase(datagen::GenerateDblpCorpus(opt), hopt);
}

/// Single keywords that actually occur in the corpus, drawn from record
/// text, so every benchmarked query does real engine work.
std::vector<std::vector<std::string>> MakeQueries(
    const hidden::HiddenDatabase& db, size_t count) {
  std::vector<std::vector<std::string>> queries;
  Rng rng(7);
  const auto& records = db.OracleTable().records();
  while (queries.size() < count) {
    const auto& rec = records[rng.UniformIndex(records.size())];
    std::string word;
    for (char c : rec.fields[0]) {
      if (c == ' ') {
        if (word.size() > 3) break;
        word.clear();
      } else {
        word.push_back(c);
      }
    }
    if (word.size() > 3) queries.push_back({word});
  }
  return queries;
}

void BM_CacheMiss(benchmark::State& state) {
  auto db = MakeDb(5000);
  auto queries = MakeQueries(db, 256);
  // Capacity 1 with a rotating query set: every lookup misses and pays
  // engine cost + insertion + eviction.
  net::CachingInterface cache(&db, 1);
  size_t i = 0;
  for (auto _ : state) {
    auto r = cache.SearchPage(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMiss);

void BM_CacheHit(benchmark::State& state) {
  auto db = MakeDb(5000);
  auto queries = MakeQueries(db, 256);
  net::CachingInterface cache(&db, queries.size());
  for (const auto& q : queries) {
    auto r = cache.SearchPage(q);
    benchmark::DoNotOptimize(r.ok());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = cache.SearchPage(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

void BM_RetryOverhead(benchmark::State& state) {
  auto db = MakeDb(5000);
  auto queries = MakeQueries(db, 256);
  net::FaultOptions fopt;
  fopt.transient_fault_rate = static_cast<double>(state.range(0)) / 100.0;
  fopt.seed = 11;
  net::SimulatedClock clock;
  net::FaultInjectingInterface faults(&db, fopt, &clock);
  net::RetryOptions ropt;
  ropt.max_attempts = 8;
  ropt.seed = 12;
  net::ResilientClient client(&faults, ropt, &clock);
  size_t i = 0;
  for (auto _ : state) {
    auto r = client.SearchPage(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["retries_per_query"] = benchmark::Counter(
      static_cast<double>(client.stats().retries),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RetryOverhead)->Arg(0)->Arg(10)->Arg(30);

}  // namespace
