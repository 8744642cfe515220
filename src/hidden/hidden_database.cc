#include "hidden/hidden_database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

#include "text/tokenizer.h"

namespace smartcrawl::hidden {

HiddenDatabase::HiddenDatabase(table::Table records,
                               HiddenDatabaseOptions options,
                               std::unique_ptr<Ranker> ranker)
    : records_(std::move(records)), options_(std::move(options)) {
  docs_ = records_.BuildDocuments(dict_, options_.indexed_fields);
  index_ = index::InvertedIndex(docs_, dict_.size());
  if (ranker) {
    ranker_ = std::move(ranker);
  } else {
    ranker_ = std::make_unique<HashRanker>(/*seed=*/0);
  }
}

void HiddenDatabase::SetRanker(std::unique_ptr<Ranker> ranker) {
  ranker_ = std::move(ranker);
}

HiddenDatabase::ParsedQuery HiddenDatabase::ParseQuery(
    const std::vector<std::string>& keywords) const {
  ParsedQuery q;
  for (const std::string& kw : keywords) {
    // Each keyword may itself contain several tokens (clients often pass a
    // whole phrase); run the full tokenizer on it.
    text::ForEachToken(kw, [&](std::string_view tok) {
      auto id = dict_.Lookup(tok);
      if (id.has_value()) {
        q.terms.push_back(*id);
      } else {
        ++q.num_unknown;
      }
    });
  }
  std::sort(q.terms.begin(), q.terms.end());
  q.terms.erase(std::unique(q.terms.begin(), q.terms.end()), q.terms.end());
  return q;
}

std::vector<table::RecordId> HiddenDatabase::EvaluateMatches(
    const ParsedQuery& q) const {
  switch (options_.mode) {
    case HiddenDatabaseOptions::Mode::kConjunctive: {
      // A keyword unknown to the engine can match no record.
      if (q.num_unknown > 0 || q.terms.empty()) return {};
      return index_.IntersectPostings(q.terms);
    }
    case HiddenDatabaseOptions::Mode::kDisjunctive:
      return index_.UnionPostings(q.terms);
    case HiddenDatabaseOptions::Mode::kSemiConjunctive: {
      // A record qualifies when it contains at least
      // ceil(fraction * total keywords) of them; unknown keywords count
      // toward the total but can never be matched.
      size_t total = q.terms.size() + q.num_unknown;
      if (total == 0) return {};
      auto required = static_cast<size_t>(std::ceil(
          options_.min_match_fraction * static_cast<double>(total)));
      if (required == 0) required = 1;
      if (required > q.terms.size()) return {};  // junk made it unsatisfiable
      std::vector<table::RecordId> out;
      // Count matches by merging posting lists.
      std::unordered_map<table::RecordId, uint32_t> counts;
      for (text::TermId t : q.terms) {
        for (index::DocIndex d : index_.Postings(t)) ++counts[d];
      }
      for (const auto& [d, c] : counts) {
        if (c >= required) out.push_back(d);
      }
      std::sort(out.begin(), out.end());
      return out;
    }
  }
  return {};
}

std::vector<table::RecordId> HiddenDatabase::EvaluateTopK(
    const ParsedQuery& q) const {
  std::vector<table::RecordId> matches = EvaluateMatches(q);
  return ranker_->TopK(std::move(matches), q.terms, options_.top_k);
}

Result<PageRef> HiddenDatabase::SearchPage(
    const std::vector<std::string>& keywords) {
  ParsedQuery q = ParseQuery(keywords);
  if (q.empty()) {
    return Status::InvalidArgument(
        "query contains no searchable keywords (empty or all stop words)");
  }
  ++num_queries_;
  std::vector<table::RecordId> top = EvaluateTopK(q);
  std::vector<table::Record> out;
  out.reserve(top.size());
  for (table::RecordId id : top) out.push_back(records_.record(id));
  return MakePage(std::move(out));
}

std::vector<table::RecordId> HiddenDatabase::OracleMatches(
    const std::vector<std::string>& keywords) const {
  return EvaluateMatches(ParseQuery(keywords));
}

std::vector<table::RecordId> HiddenDatabase::OracleTopK(
    const std::vector<std::string>& keywords) const {
  ParsedQuery q = ParseQuery(keywords);
  if (q.empty()) return {};
  return EvaluateTopK(q);
}

size_t HiddenDatabase::OracleFrequency(
    const std::vector<std::string>& keywords) const {
  return OracleMatches(keywords).size();
}

std::unique_ptr<Ranker> MakeFieldRanker(const table::Table& t,
                                        const std::string& field_name) {
  auto idx = t.schema().FieldIndex(field_name);
  std::vector<double> scores(t.size(), 0.0);
  if (idx.has_value()) {
    for (const auto& rec : t.records()) {
      const std::string& v = rec.fields[*idx];
      char* end = nullptr;
      double d = std::strtod(v.c_str(), &end);
      scores[rec.id] = (end != v.c_str()) ? d : 0.0;
    }
  }
  return std::make_unique<StaticScoreRanker>(std::move(scores));
}

}  // namespace smartcrawl::hidden
