#include "net/fault_injection.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hidden/hidden_database.h"
#include "net/caching_interface.h"
#include "util/random.h"

namespace smartcrawl::net {
namespace {

hidden::HiddenDatabase SmallDb(size_t top_k = 10) {
  table::Table t(table::Schema{{"name"}});
  EXPECT_TRUE(t.Append({"alpha beta"}, 1).ok());
  EXPECT_TRUE(t.Append({"beta gamma"}, 2).ok());
  EXPECT_TRUE(t.Append({"beta delta"}, 3).ok());
  hidden::HiddenDatabaseOptions opt;
  opt.top_k = top_k;
  return hidden::HiddenDatabase(std::move(t), opt);
}

TEST(NetFaultInjectionTest, ZeroRatesArePureDecoration) {
  auto db = SmallDb();
  FaultInjectingInterface iface(&db, FaultOptions{});
  auto r = iface.Search({"beta"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_EQ(iface.top_k(), 10u);
  EXPECT_EQ(iface.num_queries_issued(), 1u);
  EXPECT_EQ(iface.stats().transient_faults, 0u);
  EXPECT_EQ(iface.stats().rate_limited, 0u);
}

TEST(NetFaultInjectionTest, FaultStreamIsDeterministicPerSeed) {
  FaultOptions opt;
  opt.transient_fault_rate = 0.3;
  opt.rate_limit_rate = 0.1;
  opt.seed = 42;

  auto fates = [&](uint64_t seed) {
    auto db = SmallDb();
    FaultOptions o = opt;
    o.seed = seed;
    FaultInjectingInterface iface(&db, o);
    std::vector<int> out;
    for (int i = 0; i < 200; ++i) {
      auto r = iface.Search({"beta"});
      out.push_back(r.ok() ? 0 : (r.status().retry_after_ms() > 0 ? 2 : 1));
    }
    return out;
  };

  EXPECT_EQ(fates(42), fates(42));
  EXPECT_NE(fates(42), fates(43));
}

TEST(NetFaultInjectionTest, FaultedAttemptsNeverReachTheEngine) {
  auto db = SmallDb();
  FaultOptions opt;
  opt.transient_fault_rate = 1.0;
  FaultInjectingInterface iface(&db, opt);
  for (int i = 0; i < 5; ++i) {
    auto r = iface.Search({"beta"});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable());
  }
  EXPECT_EQ(db.num_queries_issued(), 0u);
  EXPECT_EQ(iface.num_queries_issued(), 0u);
  EXPECT_EQ(iface.stats().transient_faults, 5u);
  EXPECT_EQ(iface.stats().attempts_seen, 5u);
}

TEST(NetFaultInjectionTest, RateLimitCarriesRetryAfterHint) {
  auto db = SmallDb();
  FaultOptions opt;
  opt.rate_limit_rate = 1.0;
  opt.retry_after_ms = 2500;
  FaultInjectingInterface iface(&db, opt);
  auto r = iface.Search({"beta"});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(r.status().retry_after_ms(), 2500u);
  EXPECT_EQ(iface.stats().rate_limited, 1u);
}

TEST(NetFaultInjectionTest, LatencyModelAdvancesSimulatedClock) {
  auto db = SmallDb();
  SimulatedClock clock;
  FaultOptions opt;
  opt.latency_ms = 40;
  FaultInjectingInterface iface(&db, opt, &clock);
  ASSERT_TRUE(iface.Search({"beta"}).ok());
  ASSERT_TRUE(iface.Search({"beta"}).ok());
  EXPECT_EQ(clock.now_ms(), 80u);
  EXPECT_EQ(iface.stats().simulated_latency_ms, 80u);

  // Jitter stays within [base, base + jitter].
  SimulatedClock jclock;
  FaultOptions jopt;
  jopt.latency_ms = 10;
  jopt.latency_jitter_ms = 5;
  FaultInjectingInterface jiface(&db, jopt, &jclock);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(jiface.Search({"beta"}).ok());
  EXPECT_GE(jclock.now_ms(), 20u * 10u);
  EXPECT_LE(jclock.now_ms(), 20u * 15u);
}

TEST(NetFaultInjectionTest, TruncatedPagesAreStrictPrefixes) {
  auto db = SmallDb();
  FaultOptions opt;
  opt.truncate_rate = 1.0;
  FaultInjectingInterface iface(&db, opt);
  auto full = db.Search({"beta"});
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().size(), 3u);
  for (int i = 0; i < 10; ++i) {
    auto r = iface.Search({"beta"});
    ASSERT_TRUE(r.ok());
    ASSERT_GE(r.value().size(), 1u);
    ASSERT_LT(r.value().size(), 3u);
    for (size_t j = 0; j < r.value().size(); ++j) {
      EXPECT_EQ(r.value()[j].id, full.value()[j].id);
    }
  }
  EXPECT_EQ(iface.stats().truncated_pages, 10u);
}

TEST(NetFaultInjectionTest, DuplicatedPagesRepeatAnExistingRecord) {
  auto db = SmallDb();
  FaultOptions opt;
  opt.duplicate_rate = 1.0;
  FaultInjectingInterface iface(&db, opt);
  auto r = iface.Search({"beta"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 4u);  // 3 matches + 1 duplicate
  const table::Record& dup = r.value().back();
  size_t occurrences = 0;
  for (const auto& rec : r.value()) {
    if (rec.id == dup.id) ++occurrences;
  }
  EXPECT_GE(occurrences, 2u);
  EXPECT_EQ(iface.stats().duplicated_pages, 1u);
}

TEST(NetFaultInjectionTest, UnfaultedPageIsTheInnerHandle) {
  auto db = SmallDb();
  CachingInterface cache(&db, 16);
  FaultInjectingInterface iface(&cache, FaultOptions{});
  auto inner = cache.SearchPage({"beta"});
  ASSERT_TRUE(inner.ok());
  for (int i = 0; i < 3; ++i) {
    auto r = iface.SearchPage({"beta"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->get(), inner->get());
  }
}

/// The fault model as it was when every page was a private copy: the same
/// draws in the same order, applied to a vector the model owns. The
/// page-sharing injector must reproduce it attempt for attempt.
struct CopyingFaultModel {
  explicit CopyingFaultModel(FaultOptions o) : options(o), rng(o.seed) {}

  /// Fault outcome of one attempt on an inner answer `full`: an error
  /// code (0 = page served) and the served records.
  std::pair<int, std::vector<table::Record>> Attempt(
      const std::vector<table::Record>& full) {
    ++stats.attempts_seen;
    uint64_t latency = options.latency_ms;
    if (options.latency_jitter_ms > 0) {
      latency += rng.UniformIndex(options.latency_jitter_ms + 1);
    }
    stats.simulated_latency_ms += latency;
    if (rng.Bernoulli(options.rate_limit_rate)) {
      ++stats.rate_limited;
      return {2, {}};
    }
    if (rng.Bernoulli(options.transient_fault_rate)) {
      ++stats.transient_faults;
      return {1, {}};
    }
    std::vector<table::Record> page = full;
    if (page.size() >= 2 && rng.Bernoulli(options.truncate_rate)) {
      size_t keep =
          1 + static_cast<size_t>(rng.UniformIndex(page.size() - 1));
      page.resize(keep);
      ++stats.truncated_pages;
    }
    if (!page.empty() && rng.Bernoulli(options.duplicate_rate)) {
      page.push_back(page[rng.UniformIndex(page.size())]);
      ++stats.duplicated_pages;
    }
    return {0, std::move(page)};
  }

  FaultOptions options;
  Rng rng;
  FaultStats stats;
};

TEST(NetFaultInjectionTest, FaultedPagesAreNewPagesWithUnchangedContents) {
  auto db = SmallDb();
  CachingInterface cache(&db, 16);
  FaultOptions opt;
  opt.transient_fault_rate = 0.1;
  opt.rate_limit_rate = 0.1;
  opt.truncate_rate = 0.3;
  opt.duplicate_rate = 0.3;
  opt.latency_ms = 5;
  opt.latency_jitter_ms = 7;
  opt.seed = 11;
  FaultInjectingInterface iface(&cache, opt);
  CopyingFaultModel model(opt);
  auto inner = cache.SearchPage({"beta"});
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ((*inner)->size(), 3u);

  size_t shared = 0;
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE("attempt " + std::to_string(i));
    const size_t altered_before =
        model.stats.truncated_pages + model.stats.duplicated_pages;
    auto [code, want] = model.Attempt((*inner)->records());
    const bool altered = model.stats.truncated_pages +
                             model.stats.duplicated_pages !=
                         altered_before;
    auto r = iface.SearchPage({"beta"});
    ASSERT_EQ(r.ok(), code == 0);
    if (!r.ok()) {
      EXPECT_EQ(r.status().retry_after_ms() > 0, code == 2);
      continue;
    }
    const std::vector<table::Record>& got = (*r)->records();
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id);
      EXPECT_EQ(got[j].fields, want[j].fields);
    }
    // Only a truncated or duplicated page is a new object, and building
    // it leaves the shared original untouched.
    EXPECT_EQ(r->get() != inner->get(), altered);
    EXPECT_EQ((*inner)->size(), 3u);
    if (!altered) ++shared;
  }
  const FaultStats& got = iface.stats();
  EXPECT_EQ(got.attempts_seen, model.stats.attempts_seen);
  EXPECT_EQ(got.transient_faults, model.stats.transient_faults);
  EXPECT_EQ(got.rate_limited, model.stats.rate_limited);
  EXPECT_EQ(got.truncated_pages, model.stats.truncated_pages);
  EXPECT_EQ(got.duplicated_pages, model.stats.duplicated_pages);
  EXPECT_EQ(got.simulated_latency_ms, model.stats.simulated_latency_ms);
  // The seed exercises every branch.
  EXPECT_GT(shared, 0u);
  EXPECT_GT(got.truncated_pages, 0u);
  EXPECT_GT(got.duplicated_pages, 0u);
  EXPECT_GT(got.transient_faults + got.rate_limited, 0u);
}

TEST(NetFaultInjectionTest, InnerErrorsPassThroughUnchanged) {
  auto db = SmallDb();
  FaultOptions opt;
  opt.truncate_rate = 1.0;  // must not matter for errored results
  FaultInjectingInterface iface(&db, opt);
  auto r = iface.Search({});  // invalid: no keywords
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace smartcrawl::net
