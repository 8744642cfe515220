#include "core/enrich.h"

#include <unordered_map>

#include "match/similarity_join.h"
#include "text/dictionary.h"
#include "text/document.h"
#include "util/hash.h"
#include "util/status.h"

namespace smartcrawl::core {

Result<EnrichmentOutcome> EnrichTable(
    const table::Table& local, const std::vector<table::Record>& crawled,
    const EnrichmentSpec& spec) {
  if (spec.import_fields.empty()) {
    return Status::InvalidArgument("no import fields specified");
  }
  SC_RETURN_NOT_OK(local.schema().CheckFieldNames(spec.local_match_fields));
  if (spec.er.mode == match::ErMode::kJaccard &&
      !match::IsValidJaccardThreshold(spec.er.jaccard_threshold)) {
    return Status::InvalidArgument(
        "Jaccard ER threshold must be in (0, 1] (got " +
        std::to_string(spec.er.jaccard_threshold) + ")");
  }
  for (const auto& [idx, name] : spec.import_fields) {
    if (local.schema().FieldIndex(name).has_value()) {
      return Status::AlreadyExists("local schema already has column " + name);
    }
  }

  // best_match[d] = index into `crawled`, or -1.
  std::vector<int32_t> best_match(local.size(), -1);
  switch (spec.er.mode) {
    case match::ErMode::kEntityOracle: {
      std::unordered_map<table::EntityId, int32_t> by_entity;
      for (size_t c = 0; c < crawled.size(); ++c) {
        if (crawled[c].entity_id != table::kUnknownEntity) {
          by_entity.emplace(crawled[c].entity_id, static_cast<int32_t>(c));
        }
      }
      for (const auto& rec : local.records()) {
        auto it = by_entity.find(rec.entity_id);
        if (it != by_entity.end()) best_match[rec.id] = it->second;
      }
      break;
    }
    case match::ErMode::kExact:
    case match::ErMode::kJaccard: {
      text::TermDictionary dict;
      std::vector<text::Document> local_docs =
          local.BuildDocuments(dict, spec.local_match_fields);
      std::vector<text::Document> crawled_docs;
      crawled_docs.reserve(crawled.size());
      for (const auto& rec : crawled) {
        crawled_docs.push_back(text::Document::FromFields(rec.fields, dict));
      }
      if (spec.er.mode == match::ErMode::kExact) {
        std::unordered_map<size_t, int32_t> by_hash;
        for (size_t c = 0; c < crawled_docs.size(); ++c) {
          by_hash.emplace(HashVector(crawled_docs[c].terms()),
                          static_cast<int32_t>(c));
        }
        for (size_t d = 0; d < local_docs.size(); ++d) {
          auto it = by_hash.find(HashVector(local_docs[d].terms()));
          if (it != by_hash.end() &&
              crawled_docs[it->second] == local_docs[d]) {
            best_match[d] = it->second;
          }
        }
      } else {
        // For Jaccard we match on containment-friendly similarity: the
        // local match text is often a subset of the full hidden record
        // text, so join local docs against crawled docs built from ALL
        // hidden fields using the lower threshold in the spec.
        best_match = match::BestMatchPerLeft(local_docs, crawled_docs,
                                             spec.er.jaccard_threshold,
                                             spec.num_threads);
      }
      break;
    }
  }

  // Materialize the enriched table.
  table::Schema schema = local.schema();
  for (const auto& [idx, name] : spec.import_fields) {
    schema.field_names.push_back(name);
  }
  EnrichmentOutcome outcome;
  outcome.enriched = table::Table(std::move(schema));
  for (const auto& rec : local.records()) {
    std::vector<std::string> fields = rec.fields;
    int32_t m = best_match[rec.id];
    if (m >= 0) ++outcome.records_enriched;
    for (const auto& [idx, name] : spec.import_fields) {
      if (m >= 0 && idx < crawled[static_cast<size_t>(m)].fields.size()) {
        fields.push_back(crawled[static_cast<size_t>(m)].fields[idx]);
      } else {
        fields.emplace_back();
      }
    }
    auto appended = outcome.enriched.Append(std::move(fields), rec.entity_id);
    if (!appended.ok()) return appended.status();
  }
  return outcome;
}

}  // namespace smartcrawl::core
