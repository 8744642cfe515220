/// Multi-tenant crawl-service benchmarks (google-benchmark): the cost
/// split the CrawlPlan/CrawlSession/CrawlService redesign is built around.
///
///   * BM_PlanBuild           — CrawlPlan::Build, the heavy once-per-dataset
///                              half (documents, pool, indices, sample
///                              matching). Tenants share this.
///   * BM_SessionConstruct    — CrawlSession(plan) + Begin, the per-tenant
///                              setup a CrawlService pays: O(plan size)
///                              copies, zero re-matching, and a queue seeded
///                              from the plan's initial order, built once
///                              outside the loop as a service builds it once
///                              per (plan, k). The `create_over_session`
///                              counter is the measured Build()/setup ratio
///                              — the redesign's contract is that it stays
///                              >= 10x.
///   * BM_Fleet/threads:{1,4}
///                            — a ~1k-session tenant fleet over 8 distinct
///                              plans (4 policies x 2 ER modes) driven to
///                              completion through one CrawlService behind
///                              the shared cross-tenant cache (see
///                              docs/architecture.md §6) at 1 and 4 worker
///                              threads. Results are bit-identical across
///                              thread counts (pinned by
///                              tests/core/crawl_service_test.cc); only
///                              throughput differs. Counters:
///                                - sessions_per_sec: fleet size over the
///                                  DRIVING thread's CPU time (the repo's
///                                  kIsRate convention, same as
///                                  BENCH_threads) — how cheap the driver
///                                  is, meaningful even on a 1-core host;
///                                - wall_sessions_per_sec: fleet size over
///                                  wall-clock time — the end-to-end rate;
///                                - cache_hit_rate (> 0 by construction).
///
/// Scaling: sizes honor SC_SCALE like the figure drivers (default 0.3);
/// `--smoke` forces SC_SCALE=0.05 for CI schema validation. The committed
/// bench/BENCH_service.json is generated at SC_SCALE=1.0 with a 10s min
/// time so every fleet config averages several iterations:
///   SC_SCALE=1.0 bench_service --benchmark_min_time=10
///       --benchmark_out=bench/BENCH_service.json
///       --benchmark_out_format=json   (one command line)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/crawl_plan.h"
#include "core/crawl_service.h"
#include "core/crawl_session.h"
#include "datagen/scenario.h"
#include "match/er_config.h"
#include "sample/sampler.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using namespace smartcrawl;  // NOLINT

double g_scale = 0.3;  // set in main: --smoke => 0.05, else SC_SCALE

size_t ScaledN(size_t paper_value) {
  double v = static_cast<double>(paper_value) * g_scale;
  auto out = static_cast<size_t>(v + 0.5);
  return out < 64 ? 64 : out;
}

/// One scenario + sample shared by every benchmark (built on first use, at
/// the scale fixed in main before any benchmark runs).
struct World {
  datagen::Scenario scenario;
  sample::HiddenSample sample;
};

World& TheWorld() {
  static World* world = [] {
    datagen::DblpScenarioConfig cfg;
    cfg.corpus.corpus_size = ScaledN(4000);
    cfg.corpus.db_community_fraction = 0.5;
    cfg.hidden_size = ScaledN(1500);
    cfg.local_size = ScaledN(250);
    cfg.top_k = 50;
    cfg.error_rate = 0.2;
    cfg.seed = 71;
    auto s = datagen::BuildDblpScenario(cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "scenario: %s\n", s.status().ToString().c_str());
      std::abort();
    }
    auto* w = new World{std::move(s).value(), {}};
    w->sample = sample::BernoulliSample(*w->scenario.hidden, 0.025, 13);
    return w;
  }();
  return *world;
}

core::SmartCrawlOptions PlanOptions(const World& w,
                                    core::SelectionPolicy policy,
                                    match::ErMode er) {
  core::SmartCrawlOptions opt;
  opt.policy = policy;
  opt.local_text_fields = w.scenario.local_text_fields;
  opt.num_threads = 1;
  opt.er.mode = er;
  opt.er.jaccard_threshold = 0.6;
  return opt;
}

std::unique_ptr<core::CrawlPlan> BuildPlan(const World& w,
                                           core::SelectionPolicy policy,
                                           match::ErMode er) {
  auto plan = core::CrawlPlan::Build(&w.scenario.local,
                                     PlanOptions(w, policy, er), &w.sample);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    std::abort();
  }
  return std::move(plan).value();
}

void BM_PlanBuild(benchmark::State& state) {
  World& w = TheWorld();
  for (auto _ : state) {
    auto plan = BuildPlan(w, core::SelectionPolicy::kEstBiased,
                          match::ErMode::kJaccard);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanBuild)->Unit(benchmark::kMillisecond);

/// One tenant's setup: construct a session and Begin its first crawl call
/// from the shared initial order.
void SetUpSession(const core::CrawlPlan& plan,
                  const core::CrawlSession::InitialOrder& order) {
  core::CrawlSession session(plan);
  const Status begun = session.Begin(order.top_k, /*budget=*/30, &order);
  if (!begun.ok()) {
    std::fprintf(stderr, "begin: %s\n", begun.ToString().c_str());
    std::abort();
  }
  benchmark::DoNotOptimize(&session);
}

void BM_SessionConstruct(benchmark::State& state) {
  World& w = TheWorld();
  const size_t top_k = w.scenario.hidden->top_k();
  auto plan = BuildPlan(w, core::SelectionPolicy::kEstBiased,
                        match::ErMode::kJaccard);
  const auto order = core::CrawlSession::BuildInitialOrder(*plan, top_k);
  for (auto _ : state) SetUpSession(*plan, order);
  // One explicit side-by-side measurement so the committed JSON records the
  // redesign's headline ratio (a tenant's setup must be >= 10x cheaper
  // than a full build) rather than leaving it to cross-benchmark
  // arithmetic.
  StopWatch sw;
  auto fresh = BuildPlan(w, core::SelectionPolicy::kEstBiased,
                         match::ErMode::kJaccard);
  const double plan_seconds = sw.ElapsedSeconds();
  const auto fresh_order =
      core::CrawlSession::BuildInitialOrder(*fresh, top_k);
  constexpr int kReps = 64;
  sw.Restart();
  for (int i = 0; i < kReps; ++i) SetUpSession(*fresh, fresh_order);
  const double session_seconds = sw.ElapsedSeconds() / kReps;
  state.counters["create_over_session"] =
      session_seconds > 0 ? plan_seconds / session_seconds : 0.0;
}
BENCHMARK(BM_SessionConstruct)->Unit(benchmark::kMicrosecond);

/// The session specs every fleet configuration shares (built once: plan
/// construction dominates setup and is identical for every thread count).
const std::vector<core::SessionSpec>& FleetSpecs() {
  static const std::vector<core::SessionSpec>* specs = [] {
    World& w = TheWorld();
    // 8 distinct plans: 4 policies x 2 ER modes, shared round-robin by the
    // tenant fleet (kIdeal is excluded — it needs the oracle).
    constexpr core::SelectionPolicy kPolicies[] = {
        core::SelectionPolicy::kSimple, core::SelectionPolicy::kBound,
        core::SelectionPolicy::kEstBiased,
        core::SelectionPolicy::kEstUnbiased};
    constexpr match::ErMode kModes[] = {match::ErMode::kEntityOracle,
                                        match::ErMode::kJaccard};
    std::vector<std::shared_ptr<const core::CrawlPlan>> plans;
    for (core::SelectionPolicy p : kPolicies)
      for (match::ErMode er : kModes) plans.push_back(BuildPlan(w, p, er));

    const size_t num_sessions = ScaledN(1000);
    auto* out = new std::vector<core::SessionSpec>(num_sessions);
    for (size_t i = 0; i < num_sessions; ++i) {
      (*out)[i].plan = plans[i % plans.size()];
      (*out)[i].budget = 5 + i % 26;
    }
    return out;
  }();
  return *specs;
}

/// One fleet run per iteration: the arg is the worker thread count.
/// sessions_per_sec follows the repo's kIsRate convention (the driving
/// thread's CPU time — pool threads are deliberately NOT counted, so the
/// counter reads as "how cheap is the driver"); wall_sessions_per_sec is
/// the end-to-end rate, measured manually over wall time.
void BM_Fleet(benchmark::State& state) {
  World& w = TheWorld();
  const std::vector<core::SessionSpec>& specs = FleetSpecs();

  size_t sessions_done = 0;
  double hit_rate = 0.0;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    core::CrawlServiceOptions sopt;
    sopt.num_threads = static_cast<unsigned>(state.range(0));
    core::CrawlService service(w.scenario.hidden.get(), sopt);
    StopWatch sw;
    auto outcomes = service.RunAll(specs);
    wall_seconds += sw.ElapsedSeconds();
    if (!outcomes.ok()) {
      state.SkipWithError(outcomes.status().ToString().c_str());
      break;
    }
    sessions_done += outcomes->size();
    hit_rate = service.shared_cache_stats()->hit_rate();
  }
  state.counters["sessions_per_sec"] = benchmark::Counter(
      static_cast<double>(sessions_done), benchmark::Counter::kIsRate);
  state.counters["wall_sessions_per_sec"] =
      wall_seconds > 0 ? static_cast<double>(sessions_done) / wall_seconds
                       : 0.0;
  state.counters["cache_hit_rate"] = hit_rate;
  state.counters["num_sessions"] = static_cast<double>(specs.size());
}
BENCHMARK(BM_Fleet)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
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
  if (smoke) {
    g_scale = 0.05;
  } else {
    const char* s = std::getenv("SC_SCALE");
    double v = s == nullptr ? 0.0 : std::atof(s);
    g_scale = v > 0 ? v : 0.3;
  }

  int pruned_argc = static_cast<int>(args.size());
  benchmark::Initialize(&pruned_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pruned_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
