#include "sample/sampler.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datagen/yelp_gen.h"
#include "hidden/budget.h"
#include "text/tokenizer.h"

namespace smartcrawl::sample {
namespace {

hidden::HiddenDatabase MakeHidden(size_t n, size_t k, uint64_t seed) {
  datagen::YelpOptions opt;
  opt.corpus_size = n;
  opt.seed = seed;
  table::Table t = datagen::GenerateYelpCorpus(opt);
  hidden::HiddenDatabaseOptions hopt;
  hopt.top_k = k;
  return hidden::HiddenDatabase(std::move(t), hopt);
}

TEST(BernoulliSampleTest, SizeMatchesTheta) {
  auto db = MakeHidden(20000, 50, 3);
  HiddenSample s = BernoulliSample(db, 0.01, 7);
  EXPECT_NEAR(static_cast<double>(s.records.size()), 200.0, 60.0);
  EXPECT_DOUBLE_EQ(s.theta, 0.01);
  EXPECT_EQ(s.queries_spent, 0u);
}

TEST(BernoulliSampleTest, DeterministicInSeed) {
  auto db = MakeHidden(5000, 50, 3);
  HiddenSample a = BernoulliSample(db, 0.02, 11);
  HiddenSample b = BernoulliSample(db, 0.02, 11);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records.record(static_cast<table::RecordId>(i)).entity_id,
              b.records.record(static_cast<table::RecordId>(i)).entity_id);
  }
}

TEST(BernoulliSampleTest, ExtremeThetas) {
  auto db = MakeHidden(1000, 50, 3);
  EXPECT_EQ(BernoulliSample(db, 0.0, 1).records.size(), 0u);
  EXPECT_EQ(BernoulliSample(db, 1.0, 1).records.size(), 1000u);
}

TEST(BernoulliSampleTest, SamplePreservesSchemaAndEntityIds) {
  auto db = MakeHidden(2000, 50, 3);
  HiddenSample s = BernoulliSample(db, 0.05, 5);
  ASSERT_GT(s.records.size(), 0u);
  EXPECT_EQ(s.records.schema().field_names,
            db.OracleTable().schema().field_names);
  for (const auto& rec : s.records.records()) {
    EXPECT_NE(rec.entity_id, table::kUnknownEntity);
  }
}

std::vector<std::string> SingleKeywordPool(const table::Table& t) {
  std::unordered_set<std::string> kw;
  for (const auto& rec : t.records()) {
    for (size_t f = 0; f < rec.fields.size(); ++f) {
      for (auto& w : text::Tokenize(rec.fields[f])) kw.insert(w);
    }
  }
  return {kw.begin(), kw.end()};
}

TEST(KeywordSampleTest, ProducesRequestedDistinctRecords) {
  auto db = MakeHidden(5000, 50, 13);
  auto pool = SingleKeywordPool(db.OracleTable());
  KeywordSamplerOptions opt;
  opt.target_sample_size = 100;
  opt.seed = 3;
  auto s = KeywordSample(&db, pool, opt);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->records.size(), 100u);
  EXPECT_GT(s->queries_spent, 0u);
  // Distinctness of sampled records.
  std::unordered_set<table::EntityId> ids;
  for (const auto& rec : s->records.records()) ids.insert(rec.entity_id);
  EXPECT_EQ(ids.size(), 100u);
}

TEST(KeywordSampleTest, ThetaEstimateInSaneRange) {
  auto db = MakeHidden(5000, 50, 17);
  auto pool = SingleKeywordPool(db.OracleTable());
  KeywordSamplerOptions opt;
  opt.target_sample_size = 400;
  opt.seed = 9;
  auto s = KeywordSample(&db, pool, opt);
  ASSERT_TRUE(s.ok());
  double true_theta = static_cast<double>(s->records.size()) / 5000.0;
  // Capture–recapture is noisy; accept the right order of magnitude.
  EXPECT_GT(s->theta, true_theta / 5.0);
  EXPECT_LT(s->theta, true_theta * 5.0);
  EXPECT_GT(s->estimated_hidden_size, 500.0);
}

TEST(KeywordSampleTest, EmptyPoolFails) {
  auto db = MakeHidden(100, 50, 19);
  auto s = KeywordSample(&db, {}, KeywordSamplerOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsInvalidArgument());
}

TEST(KeywordSampleTest, RespectsMaxQueries) {
  auto db = MakeHidden(5000, 50, 23);
  auto pool = SingleKeywordPool(db.OracleTable());
  KeywordSamplerOptions opt;
  opt.target_sample_size = 100000;  // unreachable
  opt.max_queries = 200;
  opt.seed = 5;
  auto s = KeywordSample(&db, pool, opt);
  ASSERT_TRUE(s.ok());
  EXPECT_LE(s->queries_spent, 200u);
}

TEST(KeywordSampleTest, StopsAtBudgetBoundary) {
  auto db = MakeHidden(2000, 50, 29);
  auto pool = SingleKeywordPool(db.OracleTable());
  hidden::BudgetedInterface iface(&db, 50);
  KeywordSamplerOptions opt;
  opt.target_sample_size = 100000;
  opt.max_queries = 100000;
  opt.seed = 7;
  auto s = KeywordSample(&iface, pool, opt);
  // Either it sampled something within 50 queries or it failed cleanly.
  if (s.ok()) {
    EXPECT_LE(s->queries_spent, 50u);
  }
  EXPECT_EQ(iface.num_queries_issued(), 50u);
}

TEST(SamplePersistenceTest, RoundTripsRecordsAndMetadata) {
  auto db = MakeHidden(2000, 50, 41);
  HiddenSample s = BernoulliSample(db, 0.03, 8);
  s.queries_spent = 321;
  s.estimated_hidden_size = 1987.5;
  std::string path = (std::filesystem::temp_directory_path() /
                      "sc_sample_test.csv")
                         .string();
  ASSERT_TRUE(SaveHiddenSample(s, path).ok());
  auto back = LoadHiddenSample(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->records.size(), s.records.size());
  EXPECT_DOUBLE_EQ(back->theta, 0.03);
  EXPECT_EQ(back->queries_spent, 321u);
  EXPECT_DOUBLE_EQ(back->estimated_hidden_size, 1987.5);
  EXPECT_EQ(back->records.schema().field_names,
            s.records.schema().field_names);
  // Entity ids are simulation-only and must NOT survive persistence.
  if (back->records.size() > 0) {
    EXPECT_EQ(back->records.record(0).entity_id, table::kUnknownEntity);
  }
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
}

TEST(SamplePersistenceTest, MissingMetaFails) {
  auto db = MakeHidden(500, 50, 43);
  HiddenSample s = BernoulliSample(db, 0.05, 9);
  std::string path = (std::filesystem::temp_directory_path() /
                      "sc_sample_nometa.csv")
                         .string();
  ASSERT_TRUE(s.records.ToCsvFile(path).ok());  // CSV only, no .meta
  auto back = LoadHiddenSample(path);
  EXPECT_FALSE(back.ok());
  std::remove(path.c_str());
}

// Writes a one-record sample CSV at `name` in the temp directory with
// `meta` as its .meta file, loads it, removes both files, and returns the
// load's status.
Status LoadWithMeta(const std::string& name, const std::string& meta) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  {
    std::ofstream csv(path);
    csv << "title\nnoodle house\n";
    std::ofstream m(path + ".meta");
    m << meta;
  }
  Status st = LoadHiddenSample(path).status();
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
  return st;
}

TEST(SamplePersistenceTest, WellFormedMetaLoads) {
  EXPECT_TRUE(LoadWithMeta("sc_meta_ok.csv",
                           "theta=1\nqueries_spent=0\n"
                           "estimated_hidden_size=1e+06\n")
                  .ok());
}

TEST(SamplePersistenceTest, RejectsNanTheta) {
  EXPECT_TRUE(LoadWithMeta("sc_meta_nan.csv", "theta=nan\n")
                  .IsInvalidArgument());
}

TEST(SamplePersistenceTest, RejectsThetaAboveOne) {
  EXPECT_TRUE(
      LoadWithMeta("sc_meta_two.csv", "theta=2\n").IsInvalidArgument());
}

TEST(SamplePersistenceTest, RejectsTrailingJunk) {
  EXPECT_TRUE(LoadWithMeta("sc_meta_junk.csv", "theta=0.5abc\n")
                  .IsInvalidArgument());
}

TEST(SamplePersistenceTest, RejectsNegativeQueriesSpent) {
  EXPECT_TRUE(
      LoadWithMeta("sc_meta_negq.csv", "theta=0.5\nqueries_spent=-1\n")
          .IsInvalidArgument());
}

TEST(SamplePersistenceTest, RejectsBadEstimatedHiddenSize) {
  EXPECT_TRUE(LoadWithMeta("sc_meta_negh.csv",
                           "theta=0.5\nestimated_hidden_size=-3\n")
                  .IsInvalidArgument());
  EXPECT_TRUE(LoadWithMeta("sc_meta_infh.csv",
                           "theta=0.5\nestimated_hidden_size=inf\n")
                  .IsInvalidArgument());
}

TEST(KeywordSampleTest, SampleIsRoughlyUniform) {
  // Sample a large fraction and check no gross bias: split the hidden
  // database into two halves by entity id and expect both represented.
  auto db = MakeHidden(2000, 50, 31);
  auto pool = SingleKeywordPool(db.OracleTable());
  KeywordSamplerOptions opt;
  opt.target_sample_size = 300;
  opt.seed = 13;
  auto s = KeywordSample(&db, pool, opt);
  ASSERT_TRUE(s.ok());
  size_t low = 0, high = 0;
  for (const auto& rec : s.value().records.records()) {
    (rec.entity_id < 1000 ? low : high) += 1;
  }
  double frac = static_cast<double>(low) / static_cast<double>(low + high);
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.65);
}

}  // namespace
}  // namespace smartcrawl::sample
