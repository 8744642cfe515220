#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "text/dictionary.h"
#include "text/document.h"
#include "util/result.h"
#include "util/status.h"

/// \file table.h
/// Relational-table model shared by the local and hidden databases.
///
/// Both databases in the paper are modelled as relational tables (Sec. 2).
/// A Record carries an optional EntityId: the ground-truth identity of the
/// real-world entity it describes. Entity ids exist only because our hidden
/// database is simulated — they let the evaluation harness (and the oracle
/// matcher) compute exact coverage/recall. The crawler itself never reads
/// them.

namespace smartcrawl::table {

using RecordId = uint32_t;
using EntityId = uint64_t;
inline constexpr EntityId kUnknownEntity = static_cast<EntityId>(-1);

struct Record {
  /// Position of this record within its table.
  RecordId id = 0;
  /// Ground-truth entity identity (evaluation only); kUnknownEntity when
  /// data was loaded from the outside world without labels.
  EntityId entity_id = kUnknownEntity;
  /// Attribute values, positionally matching the table schema.
  std::vector<std::string> fields;
};

/// The identity under which crawlers and samplers deduplicate returned
/// records: the entity id when the record carries one, else its record id
/// (real APIs return stable item ids; the simulator carries them here).
inline uint64_t DedupKey(const Record& rec) {
  return rec.entity_id != kUnknownEntity ? rec.entity_id
                                         : static_cast<uint64_t>(rec.id);
}

struct Schema {
  std::vector<std::string> field_names;

  /// Index of a named field, if present.
  std::optional<size_t> FieldIndex(const std::string& name) const;

  /// OK when every name is a field of this schema; otherwise
  /// InvalidArgument naming the first unknown one.
  Status CheckFieldNames(const std::vector<std::string>& names) const;

  size_t num_fields() const { return field_names.size(); }
};

/// An in-memory table: schema + records.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const Record& record(RecordId id) const { return records_[id]; }
  const std::vector<Record>& records() const { return records_; }

  /// Appends a record; its id is assigned to its position. Returns the id.
  /// Fails if the field count does not match the schema.
  Result<RecordId> Append(std::vector<std::string> fields,
                          EntityId entity_id = kUnknownEntity);

  /// Concatenates all fields of `id` separated by spaces — document(·) of
  /// Definition 1.
  std::string ConcatenatedText(RecordId id) const;

  /// Concatenates only the named fields (e.g. a candidate key, or the
  /// attributes actually indexed by the hidden site). Unknown names fail.
  Result<std::string> ConcatenatedText(
      RecordId id, const std::vector<std::string>& field_names) const;

  /// Builds the Document of every record through `dict` (interning).
  /// If `field_names` is empty, all attributes are used. An unknown name
  /// yields empty documents, so entry points that take field names from
  /// their caller check them first (Schema::CheckFieldNames).
  std::vector<text::Document> BuildDocuments(
      text::TermDictionary& dict,
      const std::vector<std::string>& field_names = {}) const;

  /// Removes duplicate records (identical token sets over all fields),
  /// keeping the first occurrence; re-assigns ids. Returns the number
  /// removed. The paper removes local duplicates before matching (Sec. 2,
  /// footnote 3).
  size_t Deduplicate();

  /// Loads a table from CSV. First row is the header (schema).
  static Result<Table> FromCsvFile(const std::string& path, char sep = ',');

  /// Writes the table (with header) to CSV.
  Status ToCsvFile(const std::string& path, char sep = ',') const;

 private:
  Schema schema_;
  std::vector<Record> records_;
};

}  // namespace smartcrawl::table
