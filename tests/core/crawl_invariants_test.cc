#include <algorithm>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "core/baseline_crawlers.h"
#include "core/metrics.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"

/// Property tests: structural invariants every crawl run must satisfy,
/// checked across the policy × scenario-shape grid. These are the
/// "whatever the configuration, the engine never lies" guarantees:
///   I1  queries issued never exceed the budget, and agree with the
///       hidden database's own accepted-query counter;
///   I2  every page respects the top-k limit;
///   I3  the ground-truth coverage curve is monotone non-decreasing and
///       bounded by |D ∩ H|;
///   I4  covered_local_ids are unique, valid ids, and every one of them
///       appears on some returned page (per the crawler's ER view, a
///       record cannot be covered without having been retrieved) —
///       entity-oracle mode only, where crawler ER equals ground truth;
///   I5  the run is deterministic: re-running the identical configuration
///       reproduces the identical query sequence.

namespace smartcrawl::core {
namespace {

// gtest names each case by a byte dump of its InvariantParams, so the
// struct has no padding: `name_tag` fills the four bytes after `policy`.
// Padding would dump whatever the stack held and rename the case on every
// build; the tags hold the bytes of the case names as first recorded.
struct InvariantParams {
  SelectionPolicy policy;
  uint32_t name_tag;
  uint64_t seed;
  size_t k;
  size_t delta_d;
  double error_rate;
};
static_assert(sizeof(InvariantParams) == 40, "InvariantParams must have no padding");

class CrawlInvariantsTest
    : public ::testing::TestWithParam<InvariantParams> {};

datagen::Scenario MakeScenario(const InvariantParams& p) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 5000;
  cfg.corpus.seed = p.seed * 131 + 7;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 2000;
  cfg.local_size = 300;
  cfg.delta_d = p.delta_d;
  cfg.top_k = p.k;
  cfg.error_rate = p.error_rate;
  cfg.seed = p.seed;
  auto s = datagen::BuildDblpScenario(cfg);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

CrawlResult RunOnce(const datagen::Scenario& s, const InvariantParams& p,
                    const sample::HiddenSample* sample, size_t budget) {
  SmartCrawlOptions opt;
  opt.policy = p.policy;
  opt.local_text_fields = {"title", "venue", "authors"};
  const hidden::HiddenDatabase* oracle =
      p.policy == SelectionPolicy::kIdeal ? s.hidden.get() : nullptr;
  auto crawler = SmartCrawler::Create(&s.local, std::move(opt), sample, oracle);
  EXPECT_TRUE(crawler.ok()) << crawler.status();
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface iface(s.hidden.get(), budget);
  auto r = crawler.value()->Crawl(&iface, budget);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->queries_issued, iface.num_queries_issued());  // I1
  return std::move(r).value();
}

TEST_P(CrawlInvariantsTest, StructuralInvariantsHold) {
  const auto& p = GetParam();
  auto s = MakeScenario(p);
  auto sample = sample::BernoulliSample(*s.hidden, 0.02, p.seed + 9);
  const size_t budget = 50;

  CrawlResult r = RunOnce(s, p, &sample, budget);

  // I1: budget respected.
  EXPECT_LE(r.queries_issued, budget);
  EXPECT_EQ(r.iterations.size(), r.queries_issued);

  // I2: page sizes respect k.
  for (const auto& it : r.iterations) {
    EXPECT_LE(it.page_size, p.k);
    EXPECT_EQ(it.page_entities.size(), it.page_size);
    EXPECT_FALSE(it.query.empty());
  }

  // I3: coverage curve monotone, bounded by |D ∩ H|.
  auto curve = CoverageCurve(s.local, r);
  size_t prev = 0;
  for (size_t c : curve) {
    EXPECT_GE(c, prev);
    prev = c;
  }
  if (!curve.empty()) {
    EXPECT_LE(curve.back(), s.num_matchable);
  }

  // I4: crawler-side covered ids are unique, valid, and retrieved.
  std::set<table::RecordId> covered_set(r.covered_local_ids.begin(),
                                        r.covered_local_ids.end());
  EXPECT_EQ(covered_set.size(), r.covered_local_ids.size());
  std::set<table::EntityId> retrieved;
  for (const auto& it : r.iterations) {
    retrieved.insert(it.page_entities.begin(), it.page_entities.end());
  }
  for (table::RecordId d : r.covered_local_ids) {
    ASSERT_LT(d, s.local.size());
    EXPECT_TRUE(retrieved.count(s.local.record(d).entity_id))
        << "record " << d << " marked covered but never retrieved";
  }

  // I5: determinism.
  auto s2 = MakeScenario(p);
  auto sample2 = sample::BernoulliSample(*s2.hidden, 0.02, p.seed + 9);
  CrawlResult r2 = RunOnce(s2, p, &sample2, budget);
  ASSERT_EQ(r2.iterations.size(), r.iterations.size());
  for (size_t i = 0; i < r.iterations.size(); ++i) {
    EXPECT_EQ(r2.iterations[i].query, r.iterations[i].query) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, CrawlInvariantsTest,
    ::testing::Values(
        InvariantParams{SelectionPolicy::kSimple, 0x7FFE, 1, 50, 0, 0.0},
        InvariantParams{SelectionPolicy::kSimple, 0, 2, 10, 30, 0.2},
        InvariantParams{SelectionPolicy::kBound, 0x7FFE, 3, 100000, 30, 0.0},
        InvariantParams{SelectionPolicy::kBound, 0, 4, 50, 0, 0.0},
        InvariantParams{SelectionPolicy::kEstBiased, 0x55AE, 5, 50, 0, 0.0},
        InvariantParams{SelectionPolicy::kEstBiased, 0, 6, 20, 50, 0.3},
        InvariantParams{SelectionPolicy::kEstBiased, 0x7FFE, 7, 1, 0, 0.0},
        InvariantParams{SelectionPolicy::kEstUnbiased, 0x55AE, 8, 50, 20, 0.1},
        InvariantParams{SelectionPolicy::kIdeal, 0, 9, 50, 0, 0.0},
        InvariantParams{SelectionPolicy::kIdeal, 0x55AE, 10, 10, 40, 0.2}));

TEST(CrawlInvariantsTest, SemiConjunctiveYelpScenarioHoldsToo) {
  // The invariants must survive the assumption-violating interface:
  // semi-conjunctive candidates, relevance ranking, dirty local names,
  // Jaccard ER.
  datagen::YelpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.local_size = 250;
  cfg.error_rate = 0.25;
  cfg.seed = 17;
  auto s = datagen::BuildYelpScenario(cfg);
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.02, 4);

  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.7;
  auto crawler = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler.ok()) << crawler.status();
  hidden::BudgetedInterface iface(s->hidden.get(), 60);
  auto r = crawler.value()->Crawl(&iface, 60);
  ASSERT_TRUE(r.ok());

  EXPECT_LE(r->queries_issued, 60u);
  for (const auto& it : r->iterations) {
    EXPECT_LE(it.page_size, s->hidden->top_k());
  }
  auto curve = CoverageCurve(s->local, *r);
  size_t prev = 0;
  for (size_t c : curve) {
    EXPECT_GE(c, prev);
    prev = c;
  }
  if (!curve.empty()) {
    EXPECT_LE(curve.back(), s->num_matchable);
    EXPECT_GT(curve.back(), 0u);
  }
}

TEST(CrawlInvariantsTest, NaiveAndFullCrawlRespectBudgetAndK) {
  InvariantParams p{SelectionPolicy::kSimple, 0, 21, 25, 20, 0.1};
  auto s = MakeScenario(p);
  const size_t budget = 40;

  hidden::BudgetedInterface i1(s.hidden.get(), budget);
  NaiveCrawlOptions nopt;
  nopt.query_fields = {"title", "venue", "authors"};
  auto naive = NaiveCrawl(s.local, &i1, budget, nopt);
  ASSERT_TRUE(naive.ok());
  EXPECT_LE(naive->queries_issued, budget);
  for (const auto& it : naive->iterations) EXPECT_LE(it.page_size, p.k);

  auto sample = sample::BernoulliSample(*s.hidden, 0.05, 3);
  s.hidden->ResetQueryCounter();
  hidden::BudgetedInterface i2(s.hidden.get(), budget);
  auto full = FullCrawl(sample, &i2, budget, {});
  ASSERT_TRUE(full.ok());
  EXPECT_LE(full->queries_issued, budget);
  for (const auto& it : full->iterations) EXPECT_LE(it.page_size, p.k);
}

}  // namespace
}  // namespace smartcrawl::core
