#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/crawl_plan.h"
#include "core/page_match_memo.h"
#include "datagen/scenario.h"
#include "hidden/page.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/thread_pool.h"

/// Page matching against the plan's frozen dictionary, and the memo that
/// shares it across sessions.
///
///  1. Frozen page documents (CrawlPlan::FrozenPageDocuments) match
///     exactly like documents interned into a growing dictionary copy, in
///     every ER mode, including pages built to stress unknown tokens.
///  2. PageMatchMemo::Match equals CrawlPlan::MatchPreparedPage under any
///     removed bitmap, and keys its entries by plan, query and the page's
///     content fingerprint (hidden::Page::fingerprint()).
///  3. Documents the memo builds from its per-record token cache equal
///     FrozenPageDocuments, across plans, page variants and a record id
///     reused with new content.
namespace smartcrawl::core {
namespace {

constexpr match::ErMode kAllErModes[] = {match::ErMode::kEntityOracle,
                                         match::ErMode::kExact,
                                         match::ErMode::kJaccard};

/// Same world as golden_crawl_test.cc.
Result<datagen::Scenario> BuildScenario() {
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

std::unique_ptr<CrawlPlan> BuildPlan(const datagen::Scenario& s,
                                     match::ErMode er, double threshold) {
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kSimple;
  opt.local_text_fields = s.local_text_fields;
  opt.er.mode = er;
  opt.er.jaccard_threshold = threshold;
  auto plan = CrawlPlan::Build(&s.local, opt);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? std::move(plan).value() : nullptr;
}

table::Record MakeRecord(table::RecordId id, table::EntityId entity,
                         std::vector<std::string> fields) {
  table::Record rec;
  rec.id = id;
  rec.entity_id = entity;
  rec.fields = std::move(fields);
  return rec;
}

/// Pages built around local record `d` of q(D): an exact copy, the copy
/// plus a repeated unknown token, the copy plus enough distinct unknown
/// tokens to push its Jaccard score under 0.6 (a dictionary that dropped
/// unknowns would still score it 1.0), an all-unknown record, empty
/// fields; and a page whose records overlap only in unknown terms.
std::vector<std::vector<table::Record>> EdgePages(
    const datagen::Scenario& s, table::RecordId d) {
  auto text = s.local.ConcatenatedText(d, s.local_text_fields);
  EXPECT_TRUE(text.ok());
  const std::string local = text.ok() ? *text : "";
  const table::EntityId entity = s.local.record(d).entity_id;
  std::string many_unknown;
  for (size_t i = 0; i < 2 * text::Tokenize(local).size() + 1; ++i) {
    many_unknown += " zqxu" + std::to_string(i);
  }
  std::vector<table::Record> around = {
      MakeRecord(900001, entity, {local}),
      MakeRecord(900002, table::kUnknownEntity, {local, "zqxa zqxa"}),
      MakeRecord(900003, table::kUnknownEntity, {local, many_unknown}),
      MakeRecord(900004, table::kUnknownEntity, {"zqxa zqxb zqxa"}),
      MakeRecord(900005, table::kUnknownEntity, {"", ""}),
      MakeRecord(900006, entity, {"", local, ""}),
  };
  std::vector<table::Record> unknown_overlap = {
      MakeRecord(900007, table::kUnknownEntity, {"zqxa zqxb"}),
      MakeRecord(900008, table::kUnknownEntity, {"zqxa zqxb zqxc"}),
      MakeRecord(900009, table::kUnknownEntity, {local + " zqxb"}),
  };
  return {std::move(around), std::move(unknown_overlap)};
}

/// (query, page) pairs: real top-k pages of a spread of pool queries, and
/// the edge pages around each query's first local record.
std::vector<std::pair<QueryIdx, hidden::PageRef>> TestPages(
    const datagen::Scenario& s, const CrawlPlan& plan) {
  std::vector<std::pair<QueryIdx, hidden::PageRef>> out;
  const size_t stride = std::max<size_t>(1, plan.pool().size() / 60);
  for (QueryIdx q = 0; q < plan.pool().size(); q += stride) {
    auto page = s.hidden->SearchPage(plan.pool().queries[q].keywords);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (page.ok()) out.emplace_back(q, std::move(page).value());
    if (plan.pool().local_postings[q].empty()) continue;
    for (auto& edge : EdgePages(s, plan.pool().local_postings[q][0])) {
      out.emplace_back(q, hidden::MakePage(std::move(edge)));
    }
  }
  return out;
}

/// The test pages, each real page followed by a truncated and a duplicated
/// variant (new pages holding the same records), plus a page with an
/// all-stopword record, an empty and a field-less record and repeated
/// unknown tokens, and one reusing record id 900001 with content no edge
/// page gives it.
std::vector<std::pair<QueryIdx, hidden::PageRef>> TokenCachePages(
    const datagen::Scenario& s, const CrawlPlan& plan) {
  std::vector<std::pair<QueryIdx, hidden::PageRef>> out;
  for (auto& [q, page] : TestPages(s, plan)) {
    const std::vector<table::Record>& records = page->records();
    out.emplace_back(q, page);
    if (records.size() < 2) continue;
    std::vector<table::Record> duplicated = records;
    duplicated.push_back(records.back());
    duplicated.push_back(records.front());
    out.emplace_back(q, hidden::MakePage(std::vector<table::Record>(
                            records.begin(), records.end() - 1)));
    out.emplace_back(q, hidden::MakePage(std::move(duplicated)));
  }
  out.emplace_back(
      0, hidden::MakePage(
             {MakeRecord(900020, table::kUnknownEntity, {"The", "of AND the"}),
              MakeRecord(900021, table::kUnknownEntity, {"", ""}),
              MakeRecord(900022, table::kUnknownEntity, {}),
              MakeRecord(900023, table::kUnknownEntity,
                         {"zqxr ZQXR zqxr", "zqxr zqxs", "zqxs"})}));
  out.emplace_back(0, hidden::MakePage({MakeRecord(
                          900001, table::kUnknownEntity, {"zqxt", "zqxt"})}));
  return out;
}

using RecordContents =
    std::set<std::pair<table::RecordId, std::vector<std::string>>>;

/// The distinct (record id, fields) pairs over `pages`: the token sets a
/// memo caches for them.
RecordContents DistinctRecords(
    const std::vector<std::pair<QueryIdx, hidden::PageRef>>& pages) {
  RecordContents seen;
  for (const auto& [q, page] : pages) {
    for (const table::Record& rec : page->records()) {
      seen.emplace(rec.id, rec.fields);
    }
  }
  return seen;
}

/// Removed bitmaps to match under: none (all of D), all active, and two
/// random ones.
std::vector<std::vector<uint8_t>> RemovedBitmaps(size_t n, Rng& rng) {
  std::vector<std::vector<uint8_t>> out = {{}, std::vector<uint8_t>(n, 0)};
  for (double p : {0.3, 0.7}) {
    std::vector<uint8_t> removed(n, 0);
    for (uint8_t& r : removed) r = rng.Bernoulli(p) ? 1 : 0;
    out.push_back(std::move(removed));
  }
  return out;
}

TEST(PageMatchTest, FrozenDocumentsMatchLikeInternedInEveryErMode) {
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  for (match::ErMode er : kAllErModes) {
    SCOPED_TRACE("er=" + std::to_string(static_cast<int>(er)));
    auto plan = BuildPlan(*s, er, 0.6);
    ASSERT_NE(plan, nullptr);
    // The interning reference grows one dictionary copy across all pages,
    // the way a session used to.
    text::TermDictionary dict = plan->dict();
    Rng rng(17);
    size_t matched_pairs = 0;
    for (const auto& [q, page_ref] : TestPages(*s, *plan)) {
      const std::vector<table::Record>& page = page_ref->records();
      std::vector<text::Document> interned =
          CrawlPlan::BuildPageDocuments(page, &dict);
      std::vector<text::Document> frozen = plan->FrozenPageDocuments(page);
      ASSERT_EQ(frozen.size(), interned.size());
      for (size_t i = 0; i < frozen.size(); ++i) {
        // Same size, same known terms; unknowns lie past the dictionary.
        EXPECT_EQ(frozen[i].size(), interned[i].size());
        std::vector<text::TermId> known;
        for (text::TermId t : frozen[i].terms()) {
          if (t < plan->dict().size()) known.push_back(t);
        }
        std::vector<text::TermId> interned_known;
        for (text::TermId t : interned[i].terms()) {
          if (t < plan->dict().size()) interned_known.push_back(t);
        }
        EXPECT_EQ(known, interned_known);
      }
      for (const auto& removed : RemovedBitmaps(plan->num_records(), rng)) {
        std::vector<table::RecordId> want =
            plan->MatchPreparedPage(q, page, &interned, removed);
        EXPECT_EQ(plan->MatchPreparedPage(q, page, &frozen, removed), want);
        EXPECT_EQ(plan->MatchPage(q, page, removed), want);
        matched_pairs += want.size();
      }
    }
    EXPECT_GT(matched_pairs, 0u);  // the comparison is not vacuous
  }
}

TEST(PageMatchTest, UnknownTokensCountInTheJaccardDenominator) {
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan = BuildPlan(*s, match::ErMode::kJaccard, 0.6);
  ASSERT_NE(plan, nullptr);
  const QueryIdx q = 0;
  ASSERT_FALSE(plan->pool().local_postings[q].empty());
  const table::RecordId d = plan->pool().local_postings[q][0];
  const std::vector<table::Record> around = EdgePages(*s, d)[0];
  // The exact copy matches d; the copy drowned in unknown tokens does
  // not, because its unknowns enlarge the union.
  std::vector<table::RecordId> copy = plan->MatchPage(q, {around[0]}, {});
  EXPECT_TRUE(std::binary_search(copy.begin(), copy.end(), d));
  std::vector<table::RecordId> drowned = plan->MatchPage(q, {around[2]}, {});
  EXPECT_FALSE(std::binary_search(drowned.begin(), drowned.end(), d));
}

TEST(PageMatchTest, MemoFilteredThroughRemovedEqualsDirectMatch) {
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  for (match::ErMode er : kAllErModes) {
    SCOPED_TRACE("er=" + std::to_string(static_cast<int>(er)));
    auto plan = BuildPlan(*s, er, 0.6);
    ASSERT_NE(plan, nullptr);
    PageMatchMemo memo;
    Rng rng(29);
    const auto pages = TestPages(*s, *plan);
    for (int pass = 0; pass < 2; ++pass) {  // misses, then hits
      for (const auto& [q, page] : pages) {
        const std::vector<table::Record>& records = page->records();
        std::vector<text::Document> docs = plan->FrozenPageDocuments(records);
        for (const auto& removed :
             RemovedBitmaps(plan->num_records(), rng)) {
          EXPECT_EQ(memo.Match(*plan, q, *page, removed),
                    plan->MatchPreparedPage(q, records, &docs, removed));
        }
      }
    }
    const PageMatchMemo::Stats stats = memo.stats();
    if (er == match::ErMode::kEntityOracle) {
      // Oracle matching reads no text; the memo passes it straight through.
      EXPECT_EQ(stats.entries, 0u);
      EXPECT_EQ(stats.hits + stats.misses, 0u);
      EXPECT_EQ(stats.record_token_hits + stats.record_token_misses, 0u);
    } else {
      EXPECT_GT(stats.entries, 0u);
      EXPECT_LE(stats.entries, pages.size());
      EXPECT_EQ(stats.misses, stats.entries);
      EXPECT_GT(stats.hits, stats.misses);
      EXPECT_EQ(stats.record_token_misses, DistinctRecords(pages).size());
    }
    memo.Clear();
    EXPECT_EQ(memo.stats().entries, 0u);
    if (er != match::ErMode::kEntityOracle) {
      // Clear dropped the token sets too: a page is tokenized anew.
      auto it = std::find_if(pages.begin(), pages.end(), [](const auto& p) {
        return !p.second->empty();
      });
      ASSERT_NE(it, pages.end());
      const auto& [q, page] = *it;
      EXPECT_EQ(memo.Match(*plan, q, *page, {}),
                plan->MatchPage(q, page->records(), {}));
      EXPECT_EQ(memo.stats().record_token_misses,
                stats.record_token_misses + DistinctRecords({*it}).size());
    }
  }
}

TEST(PageMatchTest, TruncatedAndDuplicatedPagesGetTheirOwnEntries) {
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan = BuildPlan(*s, match::ErMode::kJaccard, 0.6);
  ASSERT_NE(plan, nullptr);
  QueryIdx q = 0;
  std::vector<table::Record> full;
  for (; q < plan->pool().size(); ++q) {
    auto page = s->hidden->Search(plan->pool().queries[q].keywords);
    ASSERT_TRUE(page.ok());
    if (page->size() >= 3 && !plan->MatchPage(q, *page, {}).empty()) {
      full = std::move(page).value();
      break;
    }
  }
  ASSERT_FALSE(full.empty());
  std::vector<table::Record> truncated(full.begin(), full.end() - 1);
  std::vector<table::Record> duplicated = full;
  duplicated.push_back(full.front());

  // Each variant is its own Page, so its fingerprint is its own.
  const hidden::PageRef pages[] = {hidden::MakePage(full),
                                   hidden::MakePage(std::move(truncated)),
                                   hidden::MakePage(std::move(duplicated))};
  PageMatchMemo memo;
  for (const hidden::PageRef& page : pages) {
    EXPECT_EQ(memo.Match(*plan, q, *page, {}),
              plan->MatchPage(q, page->records(), {}));
  }
  EXPECT_EQ(memo.stats().entries, 3u);
  EXPECT_EQ(memo.stats().misses, 3u);
  for (const hidden::PageRef& page : pages) {
    EXPECT_EQ(memo.Match(*plan, q, *page, {}),
              plan->MatchPage(q, page->records(), {}));
  }
  EXPECT_EQ(memo.stats().entries, 3u);
  EXPECT_EQ(memo.stats().hits, 3u);
}

TEST(PageMatchTest, SamePageUnderTwoPlansNeverSharesAnEntry) {
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // Same table and pool, different thresholds: the match sets differ, so
  // a shared entry would return the wrong plan's answer.
  auto strict = BuildPlan(*s, match::ErMode::kJaccard, 0.95);
  auto loose = BuildPlan(*s, match::ErMode::kJaccard, 0.3);
  ASSERT_NE(strict, nullptr);
  ASSERT_NE(loose, nullptr);
  ASSERT_EQ(strict->pool().size(), loose->pool().size());
  PageMatchMemo memo;
  size_t pages = 0;
  bool differs = false;
  for (const auto& [q, page] : TestPages(*s, *strict)) {
    std::vector<table::RecordId> a = memo.Match(*strict, q, *page, {});
    std::vector<table::RecordId> b = memo.Match(*loose, q, *page, {});
    EXPECT_EQ(a, strict->MatchPage(q, page->records(), {}));
    EXPECT_EQ(b, loose->MatchPage(q, page->records(), {}));
    differs = differs || a != b;
    ++pages;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_EQ(memo.stats().misses, 2 * pages);
}

TEST(PageMatchTest, CachedTokenDocumentsEqualFrozenPageDocuments) {
  // One memo serves all three plans, so every plan after the first builds
  // its documents purely from token sets another plan cached, and the
  // second pass reads every record from the cache.
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  PageMatchMemo memo;
  size_t records_seen = 0;
  RecordContents distinct;
  for (match::ErMode er : kAllErModes) {
    SCOPED_TRACE("er=" + std::to_string(static_cast<int>(er)));
    auto plan = BuildPlan(*s, er, 0.6);
    ASSERT_NE(plan, nullptr);
    const size_t dict_size = plan->dict().size();
    const auto pages = TokenCachePages(*s, *plan);
    distinct.merge(DistinctRecords(pages));
    Rng rng(31);
    size_t matched_pairs = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& [q, page] : pages) {
        const std::vector<table::Record>& records = page->records();
        records_seen += records.size();
        const std::vector<text::Document> cached =
            memo.PageDocuments(*plan, records);
        const std::vector<text::Document> frozen =
            plan->FrozenPageDocuments(records);
        ASSERT_EQ(cached.size(), frozen.size());
        for (size_t i = 0; i < cached.size(); ++i) {
          SCOPED_TRACE("record " + std::to_string(records[i].id));
          EXPECT_EQ(cached[i].size(), frozen[i].size());
          std::vector<text::TermId> known;
          std::vector<text::TermId> frozen_known;
          for (text::TermId t : cached[i].terms()) {
            if (t < dict_size) known.push_back(t);
          }
          for (text::TermId t : frozen[i].terms()) {
            if (t < dict_size) frozen_known.push_back(t);
          }
          EXPECT_EQ(known, frozen_known);
          EXPECT_EQ(cached[i].size() - known.size(),
                    frozen[i].size() - frozen_known.size());
        }
        for (const auto& removed :
             RemovedBitmaps(plan->num_records(), rng)) {
          const std::vector<table::RecordId> want =
              plan->MatchPreparedPage(q, records, &frozen, removed);
          EXPECT_EQ(plan->MatchPreparedPage(q, records, &cached, removed),
                    want);
          matched_pairs += want.size();
        }
      }
    }
    EXPECT_GT(matched_pairs, 0u);  // the comparison is not vacuous
  }
  // Each distinct (id, content) pair was tokenized exactly once, whichever
  // plan met it first; every other lookup was a hit.
  const PageMatchMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.record_token_misses, distinct.size());
  EXPECT_EQ(stats.record_token_hits + stats.record_token_misses,
            records_seen);
  EXPECT_GT(stats.record_token_hits, records_seen / 2);
}

TEST(PageMatchTest, ConcurrentMatchesAgreeWithDirectMatch) {
  // Workers race on the same (query, page) keys: lost insertion races
  // and hits read while other keys are inserted. Each page's truncated
  // and duplicated variants follow it, so neighbouring calls miss
  // different pages holding the same records and race to fill the
  // record-token cache.
  auto s = BuildScenario();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto plan = BuildPlan(*s, match::ErMode::kJaccard, 0.6);
  ASSERT_NE(plan, nullptr);
  const auto pages = TokenCachePages(*s, *plan);
  std::vector<std::vector<table::RecordId>> want(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    want[i] = plan->MatchPage(pages[i].first, pages[i].second->records(), {});
  }
  PageMatchMemo memo;
  constexpr size_t kRepeats = 4;
  std::vector<std::vector<table::RecordId>> got(pages.size() * kRepeats);
  util::ThreadPool pool(4);
  pool.ParallelFor(0, got.size(), /*grain=*/1, [&](size_t i) {
    const auto& [q, page] = pages[i % pages.size()];
    got[i] = memo.Match(*plan, q, *page, {});
  });
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i % pages.size()]) << "call " << i;
  }
  const PageMatchMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses, got.size());
  // Whoever loses a fill race counts a hit, so each distinct record is one
  // miss however the calls interleave.
  EXPECT_EQ(stats.record_token_misses, DistinctRecords(pages).size());
  EXPECT_GT(stats.record_token_hits, 0u);
}

}  // namespace
}  // namespace smartcrawl::core
