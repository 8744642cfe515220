#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#ifndef SC_GOLDEN_GENERATOR
#include <gtest/gtest.h>
#endif

#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"
#include "util/hash.h"

/// Golden bit-identical-crawl suite.
///
/// The CSR / kernel hot-path substrate is a pure performance rewrite: for
/// every selection policy, ER mode and thread count it must reproduce the
/// pre-refactor crawls bit for bit — same queries in the same order, same
/// estimates (to the last double bit), same coverage, same number of lazy-PQ
/// repairs. The table below was generated by the ORIGINAL vector<vector>
/// implementation (compile this file with -DSC_GOLDEN_GENERATOR to get a
/// standalone printer); any divergence is a correctness regression in the
/// flat substrate, not an acceptable "new baseline".
namespace smartcrawl::core {
namespace {

struct GoldenCase {
  SelectionPolicy policy;
  match::ErMode er;
  uint64_t queries_issued;
  uint64_t covered;
  uint64_t pq_recomputes;
  bool stopped_early;
  uint64_t fingerprint;
};

constexpr size_t kBudget = 30;

CrawlResult RunCombo(SelectionPolicy policy, match::ErMode er,
                     unsigned threads) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 1500;
  cfg.local_size = 250;
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = 71;
  auto s = datagen::BuildDblpScenario(cfg);
  if (!s.ok()) return {};
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);

  SmartCrawlOptions opt;
  opt.policy = policy;
  opt.local_text_fields = s->local_text_fields;
  opt.num_threads = threads;
  opt.er.mode = er;
  opt.er.jaccard_threshold = 0.6;
  const hidden::HiddenDatabase* oracle =
      policy == SelectionPolicy::kIdeal ? s->hidden.get() : nullptr;
  auto crawler = SmartCrawler::Create(&s->local, std::move(opt), &sample,
                                      oracle);
  if (!crawler.ok()) return {};
  hidden::BudgetedInterface iface(s->hidden.get(), kBudget);
  auto r = crawler.value()->Crawl(&iface, kBudget);
  if (!r.ok()) return {};
  return std::move(r).value();
}

/// Order-sensitive digest of everything user-visible about a crawl: the
/// iteration sequence (query text, page contents, the exact double bits of
/// the logged estimate) and the final coverage set.
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

#ifdef SC_GOLDEN_GENERATOR
const char* PolicyToken(SelectionPolicy p) {
  switch (p) {
    case SelectionPolicy::kSimple: return "SelectionPolicy::kSimple";
    case SelectionPolicy::kBound: return "SelectionPolicy::kBound";
    case SelectionPolicy::kEstBiased: return "SelectionPolicy::kEstBiased";
    case SelectionPolicy::kEstUnbiased:
      return "SelectionPolicy::kEstUnbiased";
    case SelectionPolicy::kIdeal: return "SelectionPolicy::kIdeal";
  }
  return "?";
}

const char* ErToken(match::ErMode m) {
  switch (m) {
    case match::ErMode::kEntityOracle: return "match::ErMode::kEntityOracle";
    case match::ErMode::kExact: return "match::ErMode::kExact";
    case match::ErMode::kJaccard: return "match::ErMode::kJaccard";
  }
  return "?";
}
#endif  // SC_GOLDEN_GENERATOR

constexpr SelectionPolicy kAllPolicies[] = {
    SelectionPolicy::kSimple, SelectionPolicy::kBound,
    SelectionPolicy::kEstBiased, SelectionPolicy::kEstUnbiased,
    SelectionPolicy::kIdeal};
constexpr match::ErMode kAllErModes[] = {match::ErMode::kEntityOracle,
                                         match::ErMode::kExact,
                                         match::ErMode::kJaccard};

// Generated with -DSC_GOLDEN_GENERATOR against the pre-CSR implementation
// (commit 0379e7e); regenerate ONLY for a deliberate behavior change.
const GoldenCase kGolden[] = {
    // clang-format off
    // SC_GOLDEN_TABLE_BEGIN
    {SelectionPolicy::kSimple,
     match::ErMode::kEntityOracle,
     30u, 197u, 200u, false, 0xd259d94e774d0709ULL},
    {SelectionPolicy::kSimple,
     match::ErMode::kExact,
     30u, 0u, 0u, false, 0xf362316c9f861e9fULL},
    {SelectionPolicy::kSimple,
     match::ErMode::kJaccard,
     30u, 197u, 200u, false, 0xd259d94e774d0709ULL},
    {SelectionPolicy::kBound,
     match::ErMode::kEntityOracle,
     20u, 35u, 1468u, true, 0x565cf73fe2c3c727ULL},
    {SelectionPolicy::kBound,
     match::ErMode::kExact,
     12u, 0u, 1094u, true, 0x5fb1c5e7b9a301baULL},
    {SelectionPolicy::kBound,
     match::ErMode::kJaccard,
     20u, 35u, 1468u, true, 0x565cf73fe2c3c727ULL},
    {SelectionPolicy::kEstBiased,
     match::ErMode::kEntityOracle,
     30u, 218u, 563u, false, 0xefccbc9ca61f99e5ULL},
    {SelectionPolicy::kEstBiased,
     match::ErMode::kExact,
     30u, 0u, 94u, false, 0xecd112fde9b69c73ULL},
    {SelectionPolicy::kEstBiased,
     match::ErMode::kJaccard,
     30u, 218u, 557u, false, 0xdf1e250f9dda1244ULL},
    {SelectionPolicy::kEstUnbiased,
     match::ErMode::kEntityOracle,
     30u, 50u, 201u, false, 0xe6d817718fa4678fULL},
    {SelectionPolicy::kEstUnbiased,
     match::ErMode::kExact,
     30u, 0u, 0u, false, 0xfaf06d0d4ac7cc8dULL},
    {SelectionPolicy::kEstUnbiased,
     match::ErMode::kJaccard,
     30u, 49u, 201u, false, 0x7ad8c60499235a91ULL},
    {SelectionPolicy::kIdeal,
     match::ErMode::kEntityOracle,
     30u, 238u, 1212u, false, 0x3ed0ce96a7a01109ULL},
    {SelectionPolicy::kIdeal,
     match::ErMode::kExact,
     0u, 0u, 0u, true, 0x000000005c5c5c5cULL},
    {SelectionPolicy::kIdeal,
     match::ErMode::kJaccard,
     30u, 235u, 1202u, false, 0xc7cb6d20fc5ee0ffULL},
    // SC_GOLDEN_TABLE_END
    // clang-format on
};

}  // namespace

#ifdef SC_GOLDEN_GENERATOR

int GoldenGeneratorMain() {
  for (SelectionPolicy p : kAllPolicies) {
    for (match::ErMode m : kAllErModes) {
      CrawlResult r = RunCombo(p, m, /*threads=*/1);
      std::printf(
          "    {%s,\n     %s,\n     %lluu, %lluu, %lluu, %s, "
          "0x%016llxULL},\n",
          PolicyToken(p), ErToken(m),
          static_cast<unsigned long long>(r.queries_issued),
          static_cast<unsigned long long>(r.covered_local_ids.size()),
          static_cast<unsigned long long>(r.stats.pq_recomputes),
          r.stopped_early ? "true" : "false",
          static_cast<unsigned long long>(Fingerprint(r)));
    }
  }
  return 0;
}

#else  // !SC_GOLDEN_GENERATOR

namespace {

class GoldenCrawlTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCrawlTest, ReproducesPreRefactorCrawlBitForBit) {
  const GoldenCase& g = GetParam();
  // Reproduces the pre-CSR table EXACTLY, recompute counts included.
  for (unsigned threads : {1u, 4u}) {
    CrawlResult r = RunCombo(g.policy, g.er, threads);
    EXPECT_EQ(r.queries_issued, g.queries_issued) << "threads=" << threads;
    EXPECT_EQ(r.covered_local_ids.size(), g.covered)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.pq_recomputes, g.pq_recomputes)
        << "threads=" << threads;
    EXPECT_EQ(r.stopped_early, g.stopped_early) << "threads=" << threads;
    EXPECT_EQ(Fingerprint(r), g.fingerprint) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GoldenCrawlTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& pinfo) {
      std::string name = PolicyName(pinfo.param.policy);
      switch (pinfo.param.er) {
        case match::ErMode::kEntityOracle: name += "Oracle"; break;
        case match::ErMode::kExact: name += "Exact"; break;
        case match::ErMode::kJaccard: name += "Jaccard"; break;
      }
      std::string out;
      for (char c : name) {
        if (c != '-') out += c;  // gtest names must be alphanumeric
      }
      return out;
    });

}  // namespace

#endif  // SC_GOLDEN_GENERATOR

}  // namespace smartcrawl::core

#ifdef SC_GOLDEN_GENERATOR
int main() { return smartcrawl::core::GoldenGeneratorMain(); }
#endif
