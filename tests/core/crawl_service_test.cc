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

}  // namespace
}  // namespace smartcrawl::core
