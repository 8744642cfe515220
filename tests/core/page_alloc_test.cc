#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crawl_plan.h"
#include "core/crawl_session.h"
#include "core/page_match_memo.h"
#include "datagen/scenario.h"
#include "net/caching_interface.h"
#include "sample/sampler.h"
#include "text/tokenizer.h"

/// Allocation counts of a steady-state crawl step.
///
/// Once a fleet's shared cache and page memo are warm, issuing a query is
/// a cache hit and processing its page is a memo hit. Such a step must
/// cost a small constant number of heap allocations, whatever the page
/// size: the session holds the cache's page by handle instead of copying
/// its records, and drops the handle instead of freeing a copy. This
/// binary replaces the global operator new with a counter, armed only
/// around the measured calls, so it runs as its own executable.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*n*/) noexcept { std::free(p); }

namespace smartcrawl::core {
namespace {

/// Heap allocations made while `fn` runs (the tests are single-threaded).
template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

/// A step on warm cache and memo allocates only for its own bookkeeping:
/// the cache key, the iteration log entry (query text, entity list), the
/// matched and removed record lists, and the amortized growth of the log
/// and the dirty-query scratch. Copying a page instead costs at least one
/// allocation per record (see CountsTheRecordsOfACopiedPage), more than
/// this even at k = 10.
constexpr double kMaxAllocationsPerPage = 10.0;

Result<datagen::Scenario> BuildScenario(size_t top_k) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 1500;
  cfg.local_size = 250;
  cfg.top_k = top_k;
  cfg.error_rate = 0.2;
  cfg.seed = 71;
  return datagen::BuildDblpScenario(cfg);
}

struct StepCounts {
  size_t steps = 0;        // measured IssueNext + ProcessPendingPage steps
  size_t allocations = 0;  // made by those steps
  size_t records = 0;      // on the pages they processed
};

/// Crawls once to warm `cache` and `memo`, then counts the allocations of
/// every IssueNext + ProcessPendingPage step of a second session of the
/// same plan, which follows the same path and so only hits.
StepCounts CountWarmSteps(size_t top_k, SelectionPolicy policy) {
  StepCounts out;
  auto s = BuildScenario(top_k);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  if (!s.ok()) return out;
  SmartCrawlOptions opt;
  opt.policy = policy;
  opt.local_text_fields = s->local_text_fields;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.6;
  const sample::HiddenSample sample =
      sample::BernoulliSample(*s->hidden, 0.025, 13);
  auto plan = CrawlPlan::Build(&s->local, opt, &sample);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return out;

  constexpr size_t kBudget = 40;
  net::CachingInterface cache(s->hidden.get(), /*capacity=*/4096);
  PageMatchMemo memo;
  {
    CrawlSession warm(**plan, &memo);
    EXPECT_TRUE(warm.Crawl(&cache, kBudget).ok());
  }
  const net::CacheStats warmed = cache.stats();
  const PageMatchMemo::Stats warmed_memo = memo.stats();

  CrawlSession session(**plan, &memo);
  EXPECT_TRUE(session.Begin(cache.top_k(), kBudget).ok());
  while (true) {
    Result<bool> have_page = false;
    size_t n =
        CountAllocations([&] { have_page = session.IssueNext(&cache); });
    EXPECT_TRUE(have_page.ok()) << have_page.status().ToString();
    if (!have_page.ok() || !*have_page) break;
    n += CountAllocations([&] { session.ProcessPendingPage(); });
    ++out.steps;
    out.allocations += n;
  }
  const CrawlResult result = session.TakeResult();
  out.records = result.stats.records_fetched;

  // Every measured step was a cache hit and a memo hit.
  EXPECT_EQ(cache.stats().misses, warmed.misses);
  EXPECT_EQ(cache.stats().hits - warmed.hits, out.steps);
  EXPECT_EQ(memo.stats().misses, warmed_memo.misses);
  EXPECT_EQ(memo.stats().hits - warmed_memo.hits, out.steps);
  return out;
}

class PageAllocTest : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(PageAllocTest, WarmStepAllocationsDoNotGrowWithPageSize) {
  // The same bound holds for pages of 10 and of 50 records.
  for (size_t top_k : {size_t{10}, size_t{50}}) {
    SCOPED_TRACE("top_k=" + std::to_string(top_k));
    const StepCounts counts = CountWarmSteps(top_k, GetParam());
    ASSERT_GE(counts.steps, 10u);
    // The pages carry records (several per page on average), so a copy
    // per hit would show in the count.
    EXPECT_GT(counts.records, 3 * counts.steps);
    EXPECT_LE(static_cast<double>(counts.allocations) /
                  static_cast<double>(counts.steps),
              kMaxAllocationsPerPage);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PageAllocTest,
    ::testing::Values(SelectionPolicy::kSimple, SelectionPolicy::kBound,
                      SelectionPolicy::kEstBiased),
    [](const ::testing::TestParamInfo<SelectionPolicy>& param_info) {
      switch (param_info.param) {
        case SelectionPolicy::kSimple:
          return std::string("Simple");
        case SelectionPolicy::kBound:
          return std::string("Bound");
        default:
          return std::string("EstBiased");
      }
    });

TEST(PageAllocCounterTest, CountsTheRecordsOfACopiedPage) {
  // The counter is live: copying a cached page out through Search costs
  // at least one allocation per record, while handing out the shared page
  // costs only the cache key.
  auto s = BuildScenario(50);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  net::CachingInterface cache(s->hidden.get(), /*capacity=*/16);
  // The first word of the first hidden record that returns a full page.
  std::vector<std::string> query;
  Result<hidden::PageRef> warm = Status::NotFound("no full page");
  const table::Table& h = s->hidden->OracleTable();
  for (table::RecordId id = 0; id < h.size(); ++id) {
    const std::vector<std::string> words =
        text::Tokenize(h.ConcatenatedText(id));
    if (words.empty()) continue;
    query = {words[0]};
    warm = cache.SearchPage(query);
    if (warm.ok() && (*warm)->size() == cache.top_k()) break;
  }
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ((*warm)->size(), cache.top_k());
  size_t copy = CountAllocations([&] {
    auto page = cache.Search(query);
    ASSERT_TRUE(page.ok());
  });
  EXPECT_GE(copy, (*warm)->size());
  size_t shared = CountAllocations([&] {
    auto page = cache.SearchPage(query);
    ASSERT_TRUE(page.ok());
  });
  EXPECT_LT(shared, 4u);
}

}  // namespace
}  // namespace smartcrawl::core
