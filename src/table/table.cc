#include "table/table.h"

#include <unordered_set>

#include "util/csv.h"
#include "util/hash.h"
#include "util/result.h"

namespace smartcrawl::table {

std::optional<size_t> Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < field_names.size(); ++i) {
    if (field_names[i] == name) return i;
  }
  return std::nullopt;
}

Status Schema::CheckFieldNames(const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    if (!FieldIndex(name).has_value()) {
      return Status::InvalidArgument("unknown field: " + name);
    }
  }
  return Status::OK();
}

Result<RecordId> Table::Append(std::vector<std::string> fields,
                               EntityId entity_id) {
  if (fields.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "field count mismatch: got " + std::to_string(fields.size()) +
        ", schema has " + std::to_string(schema_.num_fields()));
  }
  Record rec;
  rec.id = static_cast<RecordId>(records_.size());
  rec.entity_id = entity_id;
  rec.fields = std::move(fields);
  records_.push_back(std::move(rec));
  return records_.back().id;
}

std::string Table::ConcatenatedText(RecordId id) const {
  const Record& rec = records_[id];
  std::string out;
  for (size_t i = 0; i < rec.fields.size(); ++i) {
    if (i > 0) out += ' ';
    out += rec.fields[i];
  }
  return out;
}

Result<std::string> Table::ConcatenatedText(
    RecordId id, const std::vector<std::string>& field_names) const {
  const Record& rec = records_[id];
  std::string out;
  for (size_t i = 0; i < field_names.size(); ++i) {
    auto idx = schema_.FieldIndex(field_names[i]);
    if (!idx.has_value()) {
      return Status::InvalidArgument("unknown field: " + field_names[i]);
    }
    if (i > 0) out += ' ';
    out += rec.fields[*idx];
  }
  return out;
}

std::vector<text::Document> Table::BuildDocuments(
    text::TermDictionary& dict,
    const std::vector<std::string>& field_names) const {
  std::vector<text::Document> docs;
  docs.reserve(records_.size());
  for (const Record& rec : records_) {
    std::string textv;
    if (field_names.empty()) {
      textv = ConcatenatedText(rec.id);
    } else {
      auto r = ConcatenatedText(rec.id, field_names);
      textv = r.ok() ? std::move(r).value() : std::string();
    }
    docs.push_back(text::Document::FromText(textv, dict));
  }
  return docs;
}

size_t Table::Deduplicate() {
  text::TermDictionary dict;
  std::unordered_set<size_t> seen;
  std::vector<Record> kept;
  size_t removed = 0;
  for (Record& rec : records_) {
    text::Document doc =
        text::Document::FromText(ConcatenatedText(rec.id), dict);
    size_t h = HashVector(doc.terms());
    if (!seen.insert(h).second) {
      // Hash collision between genuinely different records is possible but
      // vanishingly unlikely (64-bit); acceptable for dedup semantics.
      ++removed;
      continue;
    }
    kept.push_back(std::move(rec));
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    kept[i].id = static_cast<RecordId>(i);
  }
  records_ = std::move(kept);
  return removed;
}

Result<Table> Table::FromCsvFile(const std::string& path, char sep) {
  SC_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path, sep));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV file has no header row: " + path);
  }
  Schema schema;
  schema.field_names = rows[0];
  Table t(std::move(schema));
  for (size_t i = 1; i < rows.size(); ++i) {
    auto appended = t.Append(std::move(rows[i]));
    if (!appended.ok()) return appended.status();
  }
  return t;
}

Status Table::ToCsvFile(const std::string& path, char sep) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(records_.size() + 1);
  rows.push_back(schema_.field_names);
  for (const Record& rec : records_) rows.push_back(rec.fields);
  return WriteCsvFile(path, rows, sep);
}

}  // namespace smartcrawl::table
