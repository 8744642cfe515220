#include "hidden/page.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"

namespace smartcrawl::hidden {
namespace {

/// The content fingerprint the page memo computed per lookup before pages
/// carried their own: every field of every record, in page order.
uint64_t PerFieldFingerprint(const std::vector<table::Record>& page) {
  Fingerprint64 fp;
  fp.AppendU64(page.size());
  for (const table::Record& rec : page) {
    fp.AppendU64(rec.id);
    fp.AppendU64(rec.entity_id);
    fp.AppendU64(rec.fields.size());
    for (const std::string& field : rec.fields) fp.AppendString(field);
  }
  return fp.Digest();
}

table::Record MakeRecord(table::RecordId id, table::EntityId entity,
                         std::vector<std::string> fields) {
  table::Record rec;
  rec.id = id;
  rec.entity_id = entity;
  rec.fields = std::move(fields);
  return rec;
}

std::vector<std::vector<table::Record>> Pages() {
  const table::Record a = MakeRecord(3, 30, {"thai house", "seattle"});
  const table::Record b = MakeRecord(7, table::kUnknownEntity, {"noodle"});
  const table::Record empty_fields = MakeRecord(9, 90, {"", ""});
  const table::Record no_fields = MakeRecord(11, 110, {});
  return {
      {},
      {a},
      {a, b},
      {b, a},
      {a, a},
      {a, b, a},
      {empty_fields},
      {no_fields},
      {empty_fields, no_fields},
  };
}

TEST(PageTest, FingerprintEqualsThePerFieldFormula) {
  for (const std::vector<table::Record>& records : Pages()) {
    const uint64_t want = PerFieldFingerprint(records);
    const PageRef page = MakePage(records);
    EXPECT_EQ(page->fingerprint(), want);
    EXPECT_EQ(page->size(), records.size());
    EXPECT_EQ(page->empty(), records.empty());
  }
}

TEST(PageTest, DistinctContentsGetDistinctFingerprints) {
  const std::vector<std::vector<table::Record>> pages = Pages();
  for (size_t i = 0; i < pages.size(); ++i) {
    for (size_t j = i + 1; j < pages.size(); ++j) {
      EXPECT_NE(Page(pages[i]).fingerprint(), Page(pages[j]).fingerprint())
          << "pages " << i << " and " << j;
    }
  }
  // Moving a field boundary changes the fingerprint too.
  EXPECT_NE(Page({MakeRecord(1, 1, {"ab", "c"})}).fingerprint(),
            Page({MakeRecord(1, 1, {"a", "bc"})}).fingerprint());
}

TEST(PageTest, KeepsItsRecordsInOrder) {
  const std::vector<table::Record> records = Pages()[5];
  const Page page(records);
  ASSERT_EQ(page.records().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(page.records()[i].id, records[i].id);
    EXPECT_EQ(page.records()[i].entity_id, records[i].entity_id);
    EXPECT_EQ(page.records()[i].fields, records[i].fields);
  }
}

}  // namespace
}  // namespace smartcrawl::hidden
