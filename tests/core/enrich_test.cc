#include "core/enrich.h"

#include <cmath>

#include <gtest/gtest.h>

namespace smartcrawl::core {
namespace {

table::Table LocalRestaurants() {
  table::Table t(table::Schema{{"name"}});
  EXPECT_TRUE(t.Append({"Thai Noodle House"}, 1).ok());
  EXPECT_TRUE(t.Append({"Steak House"}, 2).ok());
  EXPECT_TRUE(t.Append({"Unknown Palace"}, 3).ok());
  return t;
}

std::vector<table::Record> Crawled() {
  std::vector<table::Record> out;
  table::Record a;
  a.entity_id = 1;
  a.fields = {"Thai Noodle House", "4.5", "Phoenix"};
  table::Record b;
  b.entity_id = 2;
  b.fields = {"Steak House", "4.3", "Tempe"};
  out.push_back(a);
  out.push_back(b);
  return out;
}

TEST(EnrichTest, EntityOracleJoin) {
  auto local = LocalRestaurants();
  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kEntityOracle;
  spec.import_fields = {{1, "rating"}, {2, "city"}};
  auto out = EnrichTable(local, Crawled(), spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->records_enriched, 2u);
  const auto& t = out->enriched;
  EXPECT_EQ(t.schema().field_names,
            (std::vector<std::string>{"name", "rating", "city"}));
  EXPECT_EQ(t.record(0).fields, (std::vector<std::string>{
                                    "Thai Noodle House", "4.5", "Phoenix"}));
  EXPECT_EQ(t.record(2).fields,
            (std::vector<std::string>{"Unknown Palace", "", ""}));
}

TEST(EnrichTest, JaccardJoinToleratesExtraHiddenFields) {
  auto local = LocalRestaurants();
  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kJaccard;
  // Crawled records carry rating+city tokens the local side lacks; e.g.
  // "Steak House" vs {steak, house, 4, 3, tempe} has Jaccard 2/5.
  spec.er.jaccard_threshold = 0.4;
  spec.import_fields = {{1, "rating"}};
  auto out = EnrichTable(local, Crawled(), spec);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out->records_enriched, 2u);
  EXPECT_EQ(out->enriched.record(0).fields[1], "4.5");
}

TEST(EnrichTest, RejectsJaccardThresholdOutsideUnitInterval) {
  auto local = LocalRestaurants();
  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kJaccard;
  spec.import_fields = {{1, "rating"}};
  // At 0 every record would match every crawled record, shared token or
  // not; the prefix-filtered join cannot produce that, so it is refused.
  for (double bad : {0.0, -0.5, 1.5, std::nan("")}) {
    spec.er.jaccard_threshold = bad;
    auto out = EnrichTable(local, Crawled(), spec);
    ASSERT_FALSE(out.ok()) << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  spec.er.jaccard_threshold = 1.0;
  EXPECT_TRUE(EnrichTable(local, Crawled(), spec).ok());
  // Other ER modes ignore the threshold.
  spec.er = match::ErConfig{match::ErMode::kEntityOracle, 0.0};
  EXPECT_TRUE(EnrichTable(local, Crawled(), spec).ok());
}

TEST(EnrichTest, ExactModeRequiresIdenticalTokens) {
  auto local = LocalRestaurants();
  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kExact;
  spec.import_fields = {{1, "rating"}};
  auto out = EnrichTable(local, Crawled(), spec);
  ASSERT_TRUE(out.ok());
  // The crawled records carry extra fields (rating/city tokens), so their
  // documents differ from the local name-only documents.
  EXPECT_EQ(out->records_enriched, 0u);
}

TEST(EnrichTest, ExactModeMatchesIdenticalTokenSets) {
  // When the crawled record's text equals the local record's (module
  // field order/case), exact mode joins it.
  table::Table local(table::Schema{{"name"}});
  ASSERT_TRUE(local.Append({"Thai Noodle House"}, 1).ok());
  std::vector<table::Record> crawled;
  table::Record rec;
  rec.entity_id = 99;  // wrong entity id: exact mode must not care
  rec.fields = {"noodle HOUSE thai"};
  crawled.push_back(rec);

  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kExact;
  spec.import_fields = {{0, "hidden_name"}};
  auto out = EnrichTable(local, crawled, spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->records_enriched, 1u);
  EXPECT_EQ(out->enriched.record(0).fields[1], "noodle HOUSE thai");
}

TEST(EnrichTest, RejectsEmptyImportList) {
  auto out = EnrichTable(LocalRestaurants(), Crawled(), EnrichmentSpec{});
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(EnrichTest, RejectsDuplicateColumnName) {
  EnrichmentSpec spec;
  spec.import_fields = {{1, "name"}};  // collides with the local schema
  auto out = EnrichTable(LocalRestaurants(), Crawled(), spec);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsAlreadyExists());
}

TEST(EnrichTest, ImportIndexBeyondHiddenFieldsGivesEmpty) {
  auto local = LocalRestaurants();
  EnrichmentSpec spec;
  spec.er.mode = match::ErMode::kEntityOracle;
  spec.import_fields = {{9, "bogus"}};
  auto out = EnrichTable(local, Crawled(), spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->enriched.record(0).fields[1], "");
}

}  // namespace
}  // namespace smartcrawl::core
