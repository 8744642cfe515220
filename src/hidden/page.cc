#include "hidden/page.h"

#include <string>
#include <utility>

#include "util/hash.h"

namespace smartcrawl::hidden {

namespace {

uint64_t ContentFingerprint(const std::vector<table::Record>& records) {
  Fingerprint64 fp;
  fp.AppendU64(records.size());
  for (const table::Record& rec : records) {
    fp.AppendU64(rec.id);
    fp.AppendU64(rec.entity_id);
    fp.AppendU64(rec.fields.size());
    for (const std::string& field : rec.fields) fp.AppendString(field);
  }
  return fp.Digest();
}

}  // namespace

Page::Page(std::vector<table::Record> records)
    : records_(std::move(records)),
      fingerprint_(ContentFingerprint(records_)) {}

}  // namespace smartcrawl::hidden
