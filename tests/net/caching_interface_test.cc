#include "net/caching_interface.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hidden/budget.h"
#include "hidden/daily_quota.h"
#include "hidden/hidden_database.h"

namespace smartcrawl::net {
namespace {

hidden::HiddenDatabase SmallDb() {
  table::Table t(table::Schema{{"name"}});
  EXPECT_TRUE(t.Append({"alpha beta"}, 1).ok());
  EXPECT_TRUE(t.Append({"beta gamma"}, 2).ok());
  EXPECT_TRUE(t.Append({"gamma delta"}, 3).ok());
  hidden::HiddenDatabaseOptions opt;
  opt.top_k = 10;
  return hidden::HiddenDatabase(std::move(t), opt);
}

TEST(NetCachingTest, RepeatedQueriesHitTheCache) {
  auto db = SmallDb();
  CachingInterface cache(&db, 16);
  auto first = cache.Search({"beta"});
  ASSERT_TRUE(first.ok());
  auto second = cache.Search({"beta"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(db.num_queries_issued(), 1u);  // engine saw it once

  ASSERT_EQ(second.value().size(), first.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(second.value()[i].id, first.value()[i].id);
    EXPECT_EQ(second.value()[i].fields, first.value()[i].fields);
  }
}

TEST(NetCachingTest, KeyNormalizesOrderCaseAndDuplicates) {
  EXPECT_EQ(CachingInterface::NormalizedKey({"Noodle", "house"}),
            CachingInterface::NormalizedKey({"house", "noodle", "NOODLE"}));
  EXPECT_NE(CachingInterface::NormalizedKey({"noodle"}),
            CachingInterface::NormalizedKey({"noodle", "house"}));
  // The separator keeps multi-word keys unambiguous.
  EXPECT_NE(CachingInterface::NormalizedKey({"ab", "c"}),
            CachingInterface::NormalizedKey({"a", "bc"}));

  auto db = SmallDb();
  CachingInterface cache(&db, 16);
  ASSERT_TRUE(cache.Search({"beta", "Alpha"}).ok());
  ASSERT_TRUE(cache.Search({"ALPHA", "beta", "beta"}).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(db.num_queries_issued(), 1u);
}

TEST(NetCachingTest, LruEvictionDropsTheColdestEntry) {
  auto db = SmallDb();
  CachingInterface cache(&db, 2);
  ASSERT_TRUE(cache.Search({"alpha"}).ok());  // cache: [alpha]
  ASSERT_TRUE(cache.Search({"beta"}).ok());   // cache: [beta, alpha]
  ASSERT_TRUE(cache.Search({"alpha"}).ok());  // hit -> [alpha, beta]
  ASSERT_TRUE(cache.Search({"gamma"}).ok());  // evicts beta
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  ASSERT_TRUE(cache.Search({"alpha"}).ok());  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.Search({"beta"}).ok());   // was evicted: miss
  EXPECT_EQ(cache.stats().misses, 4u);        // alpha, beta, gamma, beta
}

TEST(NetCachingTest, ErrorsAreNotCached) {
  auto db = SmallDb();
  CachingInterface cache(&db, 16);
  EXPECT_FALSE(cache.Search({"the"}).ok());  // stop-word only: rejected
  EXPECT_FALSE(cache.Search({"the"}).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);  // both went through
}

TEST(NetCachingTest, ZeroCapacityIsPassThrough) {
  auto db = SmallDb();
  CachingInterface cache(&db, 0);
  ASSERT_TRUE(cache.Search({"beta"}).ok());
  ASSERT_TRUE(cache.Search({"beta"}).ok());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(db.num_queries_issued(), 2u);
}

TEST(NetCachingTest, HitsDoNotConsumeBudgetInCanonicalOrder) {
  // Canonical: cache -> budget -> db. Hits never reach the budget layer.
  auto db = SmallDb();
  hidden::BudgetedInterface budget(&db, 2);
  CachingInterface cache(&budget, 16);
  ASSERT_TRUE(cache.Search({"beta"}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(cache.Search({"beta"}).ok());
  EXPECT_EQ(budget.remaining(), 1u);
  // The cache still answers after the budget is exhausted elsewhere.
  ASSERT_TRUE(cache.Search({"alpha"}).ok());
  EXPECT_TRUE(budget.exhausted());
  ASSERT_TRUE(cache.Search({"beta"}).ok());   // cached: still fine
  EXPECT_FALSE(cache.Search({"gamma"}).ok());  // uncached: BudgetExhausted
}

}  // namespace
}  // namespace smartcrawl::net
