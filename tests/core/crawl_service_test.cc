#include <bit>
#include <iterator>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/crawl_service.h"
#include "core/crawl_session.h"
#include "core/page_match_memo.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "net/caching_interface.h"
#include "sample/sampler.h"
#include "util/hash.h"

/// CrawlService contract tests.
///
/// Three claims the service makes are pinned here:
///
///  1. Golden equivalence — driving ONE session through the service is
///     bit-identical to the SmartCrawler facade for every policy × ER
///     combo (and the facade itself is pinned to the pre-refactor golden
///     table by golden_crawl_test.cc, so the service transitively
///     reproduces the golden crawls).
///  2. Determinism — N concurrent sessions produce bit-identical
///     per-session results at any worker thread count, including the
///     shared-cache warming order.
///  3. Shared-cache semantics — a query answered for tenant A is a cache
///     hit for tenant B, and under per-tenant daily-quota metering such
///     hits are metered-free.
///  4. Page sharing — matching pages through the run's page memo changes
///     nothing observable, even when per-tenant faults truncate or
///     duplicate pages.
namespace smartcrawl::core {
namespace {

constexpr size_t kBudget = 30;

constexpr SelectionPolicy kAllPolicies[] = {
    SelectionPolicy::kSimple, SelectionPolicy::kBound,
    SelectionPolicy::kEstBiased, SelectionPolicy::kEstUnbiased,
    SelectionPolicy::kIdeal};
constexpr match::ErMode kAllErModes[] = {match::ErMode::kEntityOracle,
                                         match::ErMode::kExact,
                                         match::ErMode::kJaccard};

/// Same scenario as golden_crawl_test.cc so the equivalence below pins
/// the service to the exact crawls the golden table freezes.
Result<datagen::Scenario> BuildGoldenScenario() {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 1500;
  cfg.local_size = 250;
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = 71;
  return datagen::BuildDblpScenario(cfg);
}

SmartCrawlOptions GoldenOptions(const datagen::Scenario& s,
                                SelectionPolicy policy, match::ErMode er) {
  SmartCrawlOptions opt;
  opt.policy = policy;
  opt.local_text_fields = s.local_text_fields;
  opt.num_threads = 1;
  opt.er.mode = er;
  opt.er.jaccard_threshold = 0.6;
  return opt;
}

/// Order-sensitive digest of everything user-visible about a crawl (same
/// shape as golden_crawl_test.cc's).
uint64_t Fingerprint(const CrawlResult& r) {
  size_t h = 0x5c5c5c5cULL;
  for (const auto& it : r.iterations) {
    HashCombine(h, Fnv1a(it.query));
    HashCombine(h, it.page_size);
    HashCombine(h, std::bit_cast<uint64_t>(it.estimated_benefit));
    for (table::EntityId e : it.page_entities) HashCombine(h, e);
  }
  for (table::RecordId d : r.covered_local_ids) HashCombine(h, d);
  return h;
}

TEST(CrawlServiceTest, OneSessionReproducesFacadeForEveryCombo) {
  for (SelectionPolicy policy : kAllPolicies) {
    for (match::ErMode er : kAllErModes) {
      SCOPED_TRACE(PolicyName(policy) + " er=" +
                   std::to_string(static_cast<int>(er)));
      auto s = BuildGoldenScenario();
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
      const hidden::HiddenDatabase* oracle =
          policy == SelectionPolicy::kIdeal ? s->hidden.get() : nullptr;

      // Facade run — exactly what golden_crawl_test.cc pins.
      auto crawler = SmartCrawler::Create(
          &s->local, GoldenOptions(*s, policy, er), &sample, oracle);
      ASSERT_TRUE(crawler.ok()) << crawler.status().ToString();
      hidden::BudgetedInterface iface(s->hidden.get(), kBudget);
      auto facade = (*crawler)->Crawl(&iface, kBudget);
      ASSERT_TRUE(facade.ok()) << facade.status().ToString();

      // Service run over the SAME plan (the facade's session already used
      // it — immutability means a fresh session must see pristine state).
      CrawlServiceOptions sopt;
      sopt.num_threads = 1;
      sopt.shared_cache_capacity = 0;  // match the facade transport exactly
      CrawlService service(s->hidden.get(), sopt);
      SessionSpec spec;
      spec.plan = (*crawler)->shared_plan();
      spec.budget = kBudget;
      auto outcomes = service.RunAll({spec});
      ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
      ASSERT_EQ(outcomes->size(), 1u);
      const SessionOutcome& out = (*outcomes)[0];
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();

      EXPECT_EQ(out.result.queries_issued, facade->queries_issued);
      EXPECT_EQ(out.result.covered_local_ids.size(),
                facade->covered_local_ids.size());
      EXPECT_EQ(out.result.stats.pq_recomputes,
                facade->stats.pq_recomputes);
      EXPECT_EQ(out.result.stopped_early, facade->stopped_early);
      EXPECT_EQ(Fingerprint(out.result), Fingerprint(*facade));
    }
  }
}

/// The 8-tenant fleet the determinism tests drive: one EstBiased/Jaccard
/// plan over the golden scenario. Varying budgets spread finishes across
/// rounds (exercising the streaming finish path mid-drive); per-tenant
/// daily quotas make quota_used_today a comparison axis. Heap-allocated
/// because the plan points into the scenario's local table.
struct EightTenantFleet {
  datagen::Scenario scenario;
  std::vector<SessionSpec> specs;
};

std::unique_ptr<EightTenantFleet> BuildEightTenantFleet() {
  auto s = BuildGoldenScenario();
  if (!s.ok()) {
    ADD_FAILURE() << s.status().ToString();
    return nullptr;
  }
  auto fleet = std::make_unique<EightTenantFleet>();
  fleet->scenario = std::move(s).value();
  auto sample = sample::BernoulliSample(*fleet->scenario.hidden, 0.025, 13);
  auto plan_or = CrawlPlan::Build(
      &fleet->scenario.local,
      GoldenOptions(fleet->scenario, SelectionPolicy::kEstBiased,
                    match::ErMode::kJaccard),
      &sample);
  if (!plan_or.ok()) {
    ADD_FAILURE() << plan_or.status().ToString();
    return nullptr;
  }
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();
  for (size_t b : {5, 30, 12, 7, 30, 18, 25, 3}) {
    SessionSpec spec;
    spec.plan = plan;
    spec.budget = b;
    spec.transport.daily_quota = 100;  // never rejects; meters deltas
    fleet->specs.push_back(std::move(spec));
  }
  return fleet;
}

/// What a fleet run hands back, for bit-for-bit comparison.
struct FleetRun {
  std::vector<SessionOutcome> outcomes;
  std::vector<size_t> finish_order;
  net::CacheStats cache;
};

FleetRun DriveFleet(CrawlService* service,
                    const std::vector<SessionSpec>& specs) {
  FleetRun run;
  run.outcomes.resize(specs.size());
  Status st = service->Drive(specs, [&](size_t i, SessionOutcome out) {
    run.finish_order.push_back(i);
    run.outcomes[i] = std::move(out);
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  run.cache = *service->shared_cache_stats();
  return run;
}

TEST(CrawlServiceTest, EightSessionsAreBitIdenticalAcrossThreadCounts) {
  // 1 and 4 worker threads produce the same finish order and per-session
  // results, bit for bit.
  const auto fleet = BuildEightTenantFleet();
  ASSERT_NE(fleet, nullptr);
  auto run = [&](unsigned threads) {
    CrawlServiceOptions sopt;
    sopt.num_threads = threads;  // shared cache on (default capacity)
    CrawlService service(fleet->scenario.hidden.get(), sopt);
    return DriveFleet(&service, fleet->specs);
  };

  const FleetRun seq = run(1);
  const FleetRun par = run(4);
  EXPECT_EQ(seq.finish_order, par.finish_order);
  EXPECT_GT(seq.cache.hits, 0u);
  EXPECT_GT(par.cache.hits, 0u);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (size_t i = 0; i < seq.outcomes.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const SessionOutcome& a = seq.outcomes[i];
    const SessionOutcome& b = par.outcomes[i];
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_EQ(a.result.queries_issued, b.result.queries_issued);
    EXPECT_EQ(Fingerprint(a.result), Fingerprint(b.result));
  }
}

TEST(CrawlServiceTest, FleetMatrixBitIdenticalAcrossModesThreadsShards) {
  // The headline determinism claim over every run configuration the
  // service has: the streaming (Drive) and batch (RunAll) surfaces at
  // {1,4} worker threads produce the same per-session results (bit for
  // bit), repair work, quota consumption and shared-cache counters, and
  // Drive the same finish order. The shard axis is the single-lock shared
  // cache (CrawlServiceOptions::shared_cache_shards == 1). The reference
  // is Drive at 1 thread — the configuration closest to the paper's
  // sequential crawler.
  static_assert(CrawlServiceOptions::shared_cache_shards == 1);
  const auto fleet = BuildEightTenantFleet();
  ASSERT_NE(fleet, nullptr);
  enum class Surface { kDrive, kRunAll };
  auto run = [&](Surface surface, unsigned threads) {
    CrawlServiceOptions sopt;
    sopt.num_threads = threads;  // default capacity: no evictions
    CrawlService service(fleet->scenario.hidden.get(), sopt);
    if (surface == Surface::kDrive) return DriveFleet(&service, fleet->specs);
    FleetRun rr;
    auto outcomes = service.RunAll(fleet->specs);
    EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    if (outcomes.ok()) rr.outcomes = std::move(outcomes).value();
    rr.cache = *service.shared_cache_stats();
    return rr;
  };

  const FleetRun ref = run(Surface::kDrive, 1);
  ASSERT_EQ(ref.finish_order.size(), fleet->specs.size());
  EXPECT_GT(ref.cache.hits, 0u);
  for (Surface surface : {Surface::kDrive, Surface::kRunAll}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("surface=") +
                   (surface == Surface::kDrive ? "Drive" : "RunAll") +
                   " threads=" + std::to_string(threads));
      const FleetRun got = run(surface, threads);
      if (surface == Surface::kDrive) {
        EXPECT_EQ(got.finish_order, ref.finish_order);
      }
      EXPECT_EQ(got.cache.hits, ref.cache.hits);
      EXPECT_EQ(got.cache.misses, ref.cache.misses);
      EXPECT_EQ(got.cache.evictions, 0u);
      ASSERT_EQ(got.outcomes.size(), ref.outcomes.size());
      for (size_t i = 0; i < ref.outcomes.size(); ++i) {
        SCOPED_TRACE("session " + std::to_string(i));
        const SessionOutcome& a = ref.outcomes[i];
        const SessionOutcome& b = got.outcomes[i];
        ASSERT_TRUE(b.status.ok()) << b.status.ToString();
        EXPECT_EQ(b.result.queries_issued, a.result.queries_issued);
        EXPECT_EQ(b.quota_used_today, a.quota_used_today);
        EXPECT_EQ(b.result.stats.pq_recomputes, a.result.stats.pq_recomputes);
        EXPECT_EQ(Fingerprint(b.result), Fingerprint(a.result));
      }
    }
  }
}

TEST(CrawlServiceTest, DriveUnwindsCleanlyWhenFinishCallbackThrows) {
  // A throwing finish callback must reach the caller, and the unwind must
  // leave no run state behind: the memo is emptied and the next Drive on
  // the same (now warm-cached) service selects exactly what a fresh
  // service does. Quota is not compared: the warm cache answers for free.
  const auto fleet = BuildEightTenantFleet();
  ASSERT_NE(fleet, nullptr);
  CrawlService service(fleet->scenario.hidden.get(), CrawlServiceOptions{});
  size_t calls = 0;
  size_t memo_entries_at_throw = 0;
  EXPECT_THROW(
      {
        Status st = service.Drive(fleet->specs, [&](size_t, SessionOutcome) {
          ++calls;
          memo_entries_at_throw = service.page_memo_stats().entries;
          throw std::runtime_error("tenant callback failed");
        });
        (void)st;
      },
      std::runtime_error);
  EXPECT_EQ(calls, 1u);
  // The first finish comes mid-run, with pages already memoized.
  EXPECT_GT(memo_entries_at_throw, 0u);
  EXPECT_EQ(service.page_memo_stats().entries, 0u);

  const FleetRun again = DriveFleet(&service, fleet->specs);
  CrawlService fresh_service(fleet->scenario.hidden.get(),
                             CrawlServiceOptions{});
  const FleetRun fresh = DriveFleet(&fresh_service, fleet->specs);
  EXPECT_EQ(again.finish_order, fresh.finish_order);
  ASSERT_EQ(again.outcomes.size(), fresh.outcomes.size());
  for (size_t i = 0; i < fresh.outcomes.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    ASSERT_TRUE(again.outcomes[i].status.ok())
        << again.outcomes[i].status.ToString();
    EXPECT_EQ(Fingerprint(again.outcomes[i].result),
              Fingerprint(fresh.outcomes[i].result));
  }
}

TEST(CrawlServiceTest, SharedCacheHitsAreMeteredFreeUnderDailyQuota) {
  auto s = BuildGoldenScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan_or = CrawlPlan::Build(
      &s->local,
      GoldenOptions(*s, SelectionPolicy::kSimple, match::ErMode::kJaccard));
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();

  CrawlService service(s->hidden.get(), CrawlServiceOptions{});
  // Two tenants with identical plans and budgets, each behind its own
  // daily-quota meter. Phase A walks tenant 0 first each round, so tenant
  // 0 populates the shared cache and tenant 1 rides it for free.
  std::vector<SessionSpec> specs(2);
  for (SessionSpec& spec : specs) {
    spec.plan = plan;
    spec.budget = 20;
    spec.transport.daily_quota = 100;  // large enough to never reject
  }
  auto outcomes = service.RunAll(specs);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 2u);
  const SessionOutcome& a = (*outcomes)[0];
  const SessionOutcome& b = (*outcomes)[1];
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();

  // Both tenants got full crawls...
  EXPECT_EQ(a.result.queries_issued, 20u);
  EXPECT_EQ(b.result.queries_issued, 20u);
  EXPECT_EQ(Fingerprint(a.result), Fingerprint(b.result));
  // ...but only tenant 0 paid the provider: every one of tenant 1's
  // queries was answered by the shared cache, below which its quota layer
  // saw no origin traffic.
  EXPECT_EQ(a.quota_used_today, 20u);
  EXPECT_EQ(b.quota_used_today, 0u);
  ASSERT_TRUE(service.shared_cache_stats().has_value());
  EXPECT_GE(service.shared_cache_stats()->hits, 20u);
}

TEST(CrawlServiceTest, ReusedServiceScratchIsStatelessAcrossRuns) {
  // One service driving two consecutive fleets reuses its RoundScratch
  // (and keeps its warm shared cache). Reuse must not leak state:
  // selections stay bit-identical, only the metering moves to the cache.
  auto s = BuildGoldenScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan_or = CrawlPlan::Build(
      &s->local,
      GoldenOptions(*s, SelectionPolicy::kSimple, match::ErMode::kJaccard));
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();

  std::vector<SessionSpec> specs(3);
  for (SessionSpec& spec : specs) {
    spec.plan = plan;
    spec.budget = 15;
    spec.transport.daily_quota = 100;
  }

  CrawlService service(s->hidden.get(), CrawlServiceOptions{});
  auto first = service.RunAll(specs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = service.RunAll(specs);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    ASSERT_TRUE((*second)[i].status.ok()) << (*second)[i].status.ToString();
    EXPECT_EQ((*first)[i].result.queries_issued,
              (*second)[i].result.queries_issued);
    EXPECT_EQ(Fingerprint((*first)[i].result),
              Fingerprint((*second)[i].result));
  }
  // Run 2 was answered entirely out of the cache run 1 warmed, so its
  // tenants paid no quota at all — cross-RUN answer sharing, not just
  // cross-tenant.
  EXPECT_GT((*first)[0].quota_used_today, 0u);
  EXPECT_EQ((*second)[0].quota_used_today, 0u);
}

/// Forwards every query to `origin` and remembers each distinct
/// (record id, fields) pair the origin returned. The service issues all
/// transport calls on the Drive thread, so no lock is needed.
class RecordingOrigin : public hidden::KeywordSearchInterface {
 public:
  explicit RecordingOrigin(hidden::KeywordSearchInterface* origin)
      : origin_(origin) {}

  Result<hidden::PageRef> SearchPage(
      const std::vector<std::string>& keywords) override {
    auto page = origin_->SearchPage(keywords);
    if (page.ok()) {
      for (const table::Record& rec : (*page)->records()) {
        records_.emplace(rec.id, rec.fields);
      }
    }
    return page;
  }
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }
  size_t top_k() const override { return origin_->top_k(); }
  size_t num_queries_issued() const override {
    return origin_->num_queries_issued();
  }

  /// Distinct (record id, content) pairs returned so far.
  size_t distinct_records() const { return records_.size(); }

 private:
  hidden::KeywordSearchInterface* origin_;
  std::set<std::pair<table::RecordId, std::vector<std::string>>> records_;
};

/// CrawlService's round loop over memo-less sessions, on one thread: each
/// round, every live session issues in index order behind one shared
/// cache (configured like the service's), then every fetched page is
/// processed. Each session matches its pages itself.
FleetRun RunMemolessRounds(hidden::KeywordSearchInterface* origin,
                           const std::vector<SessionSpec>& specs) {
  net::CachingInterface cache(origin,
                              CrawlServiceOptions{}.shared_cache_capacity);
  const size_t n = specs.size();
  FleetRun run;
  run.outcomes.resize(n);
  std::vector<std::unique_ptr<CrawlSession>> sessions(n);
  for (size_t i = 0; i < n; ++i) {
    sessions[i] = std::make_unique<CrawlSession>(*specs[i].plan);
    sessions[i]->AttachTransport(&cache, specs[i].transport);
    EXPECT_TRUE(sessions[i]
                    ->Begin(sessions[i]->transport()->top()->top_k(),
                            specs[i].budget)
                    .ok());
  }
  std::vector<uint8_t> done(n, 0);
  std::vector<uint8_t> pending(n, 0);
  size_t running = n;
  while (running > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      Result<bool> have_page = sessions[i]->IssueNext();
      EXPECT_TRUE(have_page.ok()) << have_page.status().ToString();
      if (have_page.ok() && *have_page) {
        pending[i] = 1;
        continue;
      }
      SessionOutcome& out = run.outcomes[i];
      out.result = sessions[i]->TakeResult();
      out.transport = sessions[i]->transport()->Stats();
      if (const auto* quota = sessions[i]->transport()->quota()) {
        out.quota_used_today = quota->used_today();
      }
      run.finish_order.push_back(i);
      done[i] = 1;
      --running;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!pending[i]) continue;
      sessions[i]->ProcessPendingPage();
      pending[i] = 0;
    }
  }
  run.cache = cache.stats();
  return run;
}

TEST(CrawlServiceTest, PageMemoFleetWithFaultsMatchesMemolessSessions) {
  // Tenants share one Jaccard plan, so most pages repeat across sessions
  // and are matched once through the service's page memo. Per-tenant
  // fault streams truncate and duplicate pages, so some tenants see page
  // variants that must not share the full page's entry. Whatever the
  // worker count, every observable must equal memo-less sessions driven
  // through the same rounds, and each tenant's result must equal its spec
  // crawled alone.
  auto s = BuildGoldenScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  auto plan_or =
      CrawlPlan::Build(&s->local,
                       GoldenOptions(*s, SelectionPolicy::kEstBiased,
                                     match::ErMode::kJaccard),
                       &sample);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();

  const size_t budgets[] = {30, 12, 25, 30, 7, 18, 30, 20};
  std::vector<SessionSpec> specs;
  for (size_t i = 0; i < std::size(budgets); ++i) {
    SessionSpec spec;
    spec.plan = plan;
    spec.budget = budgets[i];
    spec.transport.daily_quota = 100;  // never rejects; meters deltas
    // Even tenants see clean pages; odd ones get truncated and duplicated
    // pages from their own seeded fault stream.
    if (i % 2 == 1) {
      spec.transport.inject_faults = true;
      spec.transport.fault.truncate_rate = 0.3;
      spec.transport.fault.duplicate_rate = 0.3;
      spec.transport.fault.seed = 100 + i;
    }
    specs.push_back(std::move(spec));
  }

  const FleetRun ref = RunMemolessRounds(s->hidden.get(), specs);
  ASSERT_EQ(ref.finish_order.size(), specs.size());
  size_t truncated = 0;
  size_t duplicated = 0;
  for (const SessionOutcome& out : ref.outcomes) {
    truncated += out.transport.fault.truncated_pages;
    duplicated += out.transport.fault.duplicated_pages;
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(duplicated, 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("alone " + std::to_string(i));
    CrawlSession alone(*plan);
    alone.AttachTransport(s->hidden.get(), specs[i].transport);
    auto result = alone.Crawl(specs[i].budget);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Fingerprint(*result), Fingerprint(ref.outcomes[i].result));
  }

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CrawlServiceOptions sopt;
    sopt.num_threads = threads;
    RecordingOrigin origin(s->hidden.get());
    CrawlService service(&origin, sopt);
    FleetRun got;
    got.outcomes.resize(specs.size());
    Status st = service.Drive(specs, [&](size_t i, SessionOutcome out) {
      got.finish_order.push_back(i);
      got.outcomes[i] = std::move(out);
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    got.cache = *service.shared_cache_stats();

    // The memo really shared pages, and its entries are gone once the
    // run ended.
    const PageMatchMemo::Stats memo = service.page_memo_stats();
    EXPECT_GT(memo.hits, 0u);
    EXPECT_GT(memo.misses, 0u);
    EXPECT_EQ(memo.entries, 0u);
    // Page misses reused tokens across page variants and queries, and no
    // record was tokenized twice: truncation and duplication only drop and
    // repeat records the origin returned.
    EXPECT_GT(memo.record_token_hits, 0u);
    EXPECT_GT(memo.record_token_misses, 0u);
    EXPECT_LE(memo.record_token_misses, origin.distinct_records());

    EXPECT_EQ(got.finish_order, ref.finish_order);
    EXPECT_EQ(got.cache.hits, ref.cache.hits);
    EXPECT_EQ(got.cache.misses, ref.cache.misses);
    EXPECT_EQ(got.cache.evictions, ref.cache.evictions);
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      const SessionOutcome& g = got.outcomes[i];
      const SessionOutcome& r = ref.outcomes[i];
      ASSERT_TRUE(g.status.ok()) << g.status.ToString();
      EXPECT_EQ(g.result.queries_issued, r.result.queries_issued);
      EXPECT_EQ(g.result.stats.pq_recomputes, r.result.stats.pq_recomputes);
      EXPECT_EQ(g.result.stats.records_fetched,
                r.result.stats.records_fetched);
      EXPECT_EQ(g.quota_used_today, r.quota_used_today);
      EXPECT_EQ(g.transport.fault.truncated_pages,
                r.transport.fault.truncated_pages);
      EXPECT_EQ(g.transport.fault.duplicated_pages,
                r.transport.fault.duplicated_pages);
      EXPECT_EQ(Fingerprint(g.result), Fingerprint(r.result));
    }
  }
}

/// Every field of two crawl results, compared one by one.
void ExpectSameResult(const CrawlResult& got, const CrawlResult& want) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (size_t i = 0; i < got.iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationLog& g = got.iterations[i];
    const IterationLog& w = want.iterations[i];
    EXPECT_EQ(g.query, w.query);
    EXPECT_EQ(g.page_size, w.page_size);
    EXPECT_EQ(g.page_entities, w.page_entities);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.estimated_benefit),
              std::bit_cast<uint64_t>(w.estimated_benefit));
  }
  EXPECT_EQ(got.queries_issued, want.queries_issued);
  EXPECT_EQ(got.stats.pool_size, want.stats.pool_size);
  EXPECT_EQ(got.stats.pq_recomputes, want.stats.pq_recomputes);
  EXPECT_EQ(got.stats.fanout_updates, want.stats.fanout_updates);
  EXPECT_EQ(got.stats.records_fetched, want.stats.records_fetched);
  EXPECT_EQ(got.stats.queries_unavailable, want.stats.queries_unavailable);
  EXPECT_EQ(got.stats.queries_rejected, want.stats.queries_rejected);
  EXPECT_EQ(got.stats.delta_decrements, want.stats.delta_decrements);
  EXPECT_EQ(got.stopped_early, want.stopped_early);
  EXPECT_EQ(got.covered_local_ids, want.covered_local_ids);
  ASSERT_EQ(got.crawled_records.size(), want.crawled_records.size());
  for (size_t i = 0; i < got.crawled_records.size(); ++i) {
    EXPECT_EQ(got.crawled_records[i].id, want.crawled_records[i].id);
    EXPECT_EQ(got.crawled_records[i].entity_id,
              want.crawled_records[i].entity_id);
    EXPECT_EQ(got.crawled_records[i].fields, want.crawled_records[i].fields);
  }
}

/// Forwards searches to `origin` but reports the top-k values of `script`,
/// one per top_k() call. A service reads each tenant's k once, in session
/// order, while it sets a run up, so tenant i crawls with script[i]; a
/// standalone Crawl reads it once too. The pages stay the origin's.
class ScriptedTopKOrigin : public hidden::KeywordSearchInterface {
 public:
  ScriptedTopKOrigin(hidden::KeywordSearchInterface* origin,
                     std::vector<size_t> script)
      : origin_(origin), script_(std::move(script)) {}

  Result<hidden::PageRef> SearchPage(
      const std::vector<std::string>& keywords) override {
    return origin_->SearchPage(keywords);
  }
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }
  size_t top_k() const override { return script_.at(calls_++); }
  size_t num_queries_issued() const override {
    return origin_->num_queries_issued();
  }

  size_t top_k_calls() const { return calls_; }

 private:
  hidden::KeywordSearchInterface* origin_;
  std::vector<size_t> script_;
  mutable size_t calls_ = 0;
};

TEST(CrawlServiceTest, SelectAheadMatchesSequentialCrawlsOnEdgeCases) {
  // Phase B selects each session's next query ahead of Phase A. Whatever
  // ends a session's call, every tenant's result must equal its spec
  // crawled alone through CrawlSession::Crawl, at any worker count. The
  // shared cache is off, so each tenant's stack sees exactly the calls it
  // would see alone. The golden scenario, except that 30 local records
  // have no hidden match.
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 1500;
  cfg.local_size = 250;
  cfg.delta_d = 30;
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = 71;
  auto s = datagen::BuildDblpScenario(cfg);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  SmartCrawlOptions est_options =
      GoldenOptions(*s, SelectionPolicy::kEstBiased, match::ErMode::kJaccard);
  est_options.keep_crawled_records = true;  // compared too
  auto est_or = CrawlPlan::Build(&s->local, est_options, &sample);
  ASSERT_TRUE(est_or.ok()) << est_or.status().ToString();
  std::shared_ptr<const CrawlPlan> est = std::move(est_or).value();
  // The Ideal policy's priority is a query's true cover count, which
  // reaches zero while the records without a hidden match stay in D.
  auto ideal_or = CrawlPlan::Build(
      &s->local,
      GoldenOptions(*s, SelectionPolicy::kIdeal, match::ErMode::kEntityOracle),
      nullptr, s->hidden.get());
  ASSERT_TRUE(ideal_or.ok()) << ideal_or.status().ToString();
  std::shared_ptr<const CrawlPlan> ideal = std::move(ideal_or).value();

  // Two top-k values over one plan give two different initial orders.
  const CrawlSession::InitialOrder at50 =
      CrawlSession::BuildInitialOrder(*est, 50);
  const CrawlSession::InitialOrder at20 =
      CrawlSession::BuildInitialOrder(*est, 20);
  ASSERT_EQ(at50.entries->size(), at20.entries->size());
  bool orders_differ = false;
  for (size_t i = 0; i < at50.entries->size(); ++i) {
    orders_differ |= (*at50.entries)[i].id != (*at20.entries)[i].id ||
                     (*at50.entries)[i].priority != (*at20.entries)[i].priority;
  }
  EXPECT_TRUE(orders_differ);

  struct Tenant {
    std::shared_ptr<const CrawlPlan> plan;
    size_t top_k;
    size_t budget;
    size_t daily_quota;  // 0 = none
    double fault_rate;   // transient faults, no retries => kUnavailable
  };
  const Tenant tenants[] = {
      {est, 50, 20, 0, 0.0},      // plain
      {est, 20, 20, 0, 0.0},      // same plan, second order
      {est, 50, 25, 6, 0.0},      // quota < budget: refused pre-selection
      {est, 20, 15, 0, 0.4},      // unavailable queries: inline re-select
      {ideal, 50, 5000, 0, 0.0},  // runs until the zero-benefit stop
      {est, 20, 0, 0, 0.0},       // budget 0
      {ideal, 20, 12, 8, 0.5},    // quota and faults together
      {est, 50, 30, 0, 0.3},
  };
  std::vector<SessionSpec> specs;
  std::vector<size_t> script;
  for (size_t i = 0; i < std::size(tenants); ++i) {
    const Tenant& t = tenants[i];
    SessionSpec spec;
    spec.plan = t.plan;
    spec.budget = t.budget;
    spec.transport.daily_quota = t.daily_quota;
    if (t.fault_rate > 0.0) {
      spec.transport.inject_faults = true;
      spec.transport.fault.transient_fault_rate = t.fault_rate;
      spec.transport.fault.seed = 300 + i;
      spec.transport.retry.max_attempts = 1;
    }
    specs.push_back(std::move(spec));
    script.push_back(t.top_k);
  }

  std::vector<CrawlResult> alone(specs.size());
  std::vector<size_t> alone_active(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("alone " + std::to_string(i));
    ScriptedTopKOrigin origin(s->hidden.get(), {script[i]});
    CrawlSession session(*specs[i].plan);
    session.AttachTransport(&origin, specs[i].transport);
    auto result = session.Crawl(specs[i].budget);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    alone[i] = std::move(result).value();
    alone_active[i] = session.NumActive();
  }
  // The fleet really reaches every edge.
  EXPECT_EQ(alone[2].queries_issued, 6u);  // quota, not budget, ended it
  EXPECT_FALSE(alone[2].stopped_early);
  EXPECT_GT(alone[3].stats.queries_unavailable, 0u);
  EXPECT_GT(alone[6].stats.queries_unavailable, 0u);
  EXPECT_TRUE(alone[4].stopped_early);  // benefit 0 with records left
  EXPECT_LT(alone[4].queries_issued, ideal->pool().size());
  EXPECT_GT(alone_active[4], 0u);
  EXPECT_EQ(alone[5].queries_issued, 0u);
  EXPECT_FALSE(alone[5].stopped_early);

  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CrawlServiceOptions sopt;
    sopt.num_threads = threads;
    sopt.shared_cache_capacity = 0;
    ScriptedTopKOrigin origin(s->hidden.get(), script);
    CrawlService service(&origin, sopt);
    auto outcomes = service.RunAll(specs);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    EXPECT_EQ(origin.top_k_calls(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      ASSERT_TRUE((*outcomes)[i].status.ok())
          << (*outcomes)[i].status.ToString();
      ExpectSameResult((*outcomes)[i].result, alone[i]);
    }
    EXPECT_EQ((*outcomes)[2].quota_used_today, 6u);
  }
}

TEST(CrawlServiceTest, UnconsumedSelectionGoesBackToTheQueue) {
  // A query Select parked but no IssueNext consumed is returned to the
  // queue when the call ends: a resumed call then crawls exactly as if the
  // selection had never been made.
  auto s = BuildGoldenScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  auto plan_or =
      CrawlPlan::Build(&s->local,
                       GoldenOptions(*s, SelectionPolicy::kEstBiased,
                                     match::ErMode::kJaccard),
                       &sample);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();

  auto crawl_two_calls = [&](bool select_ahead) {
    CrawlSession session(*plan);
    hidden::KeywordSearchInterface* iface = s->hidden.get();
    std::vector<CrawlResult> calls;
    EXPECT_TRUE(session.Begin(iface->top_k(), 100).ok());
    for (int step = 0; step < 8; ++step) {
      Result<bool> have_page = session.IssueNext(iface);
      EXPECT_TRUE(have_page.ok() && *have_page);
      session.ProcessPendingPage();
      if (select_ahead) session.Select();
    }
    calls.push_back(session.TakeResult());  // abandons the parked query
    auto resumed = session.Crawl(iface, 10);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
    calls.push_back(std::move(resumed).value());
    return calls;
  };
  const std::vector<CrawlResult> plain = crawl_two_calls(false);
  std::vector<CrawlResult> ahead = crawl_two_calls(true);
  ASSERT_EQ(plain.size(), 2u);
  ASSERT_EQ(ahead.size(), 2u);
  // The abandoned selection's repairs were done in the first call, so that
  // call reports them; the lifetime count after the resumed call is equal.
  EXPECT_GE(ahead[0].stats.pq_recomputes, plain[0].stats.pq_recomputes);
  ahead[0].stats.pq_recomputes = plain[0].stats.pq_recomputes;
  for (size_t c = 0; c < 2; ++c) {
    SCOPED_TRACE("call " + std::to_string(c));
    ExpectSameResult(ahead[c], plain[c]);
  }
}

TEST(CrawlServiceTest, BeginRejectsAnOrderBuiltForAnotherPlanOrTopK) {
  auto s = BuildGoldenScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan_or = CrawlPlan::Build(
      &s->local,
      GoldenOptions(*s, SelectionPolicy::kSimple, match::ErMode::kExact));
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  std::shared_ptr<const CrawlPlan> plan = std::move(plan_or).value();
  auto other_or = CrawlPlan::Build(
      &s->local,
      GoldenOptions(*s, SelectionPolicy::kSimple, match::ErMode::kExact));
  ASSERT_TRUE(other_or.ok()) << other_or.status().ToString();

  const CrawlSession::InitialOrder order =
      CrawlSession::BuildInitialOrder(*plan, 50);
  CrawlSession wrong_k(*plan);
  EXPECT_TRUE(wrong_k.Begin(20, 5, &order).IsInvalidArgument());
  CrawlSession wrong_plan(**other_or);
  EXPECT_TRUE(wrong_plan.Begin(50, 5, &order).IsInvalidArgument());
  CrawlSession right(*plan);
  EXPECT_TRUE(right.Begin(50, 5, &order).ok());
}

}  // namespace
}  // namespace smartcrawl::core
