#include "sample/sampler.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "sample/size_estimator.h"
#include "text/tokenizer.h"
#include "util/result.h"
#include "util/status.h"

namespace smartcrawl::sample {

HiddenSample BernoulliSample(const hidden::HiddenDatabase& h, double theta,
                             uint64_t seed) {
  HiddenSample out;
  out.records = table::Table(h.OracleTable().schema());
  out.theta = theta;
  Rng rng(seed);
  for (const table::Record& rec : h.OracleTable().records()) {
    if (rng.Bernoulli(theta)) {
      auto appended = out.records.Append(rec.fields, rec.entity_id);
      (void)appended;  // schema matches by construction
    }
  }
  out.estimated_hidden_size = static_cast<double>(h.OracleSize());
  return out;
}

namespace {

/// How many times KeywordSample refines an overflowing query before it
/// gives up on the walk.
constexpr size_t kMaxRefinements = 3;

/// Parses all of `text` as a T. A double must be finite; an unsigned
/// count takes no sign, so a negative one fails.
template <typename T>
bool ParseFull(std::string_view text, T* value) {
  const char* last = text.data() + text.size();
  auto [end, ec] = std::from_chars(text.data(), last, *value);
  if (ec != std::errc() || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*value);
  return true;
}

}  // namespace

Status SaveHiddenSample(const HiddenSample& sample, const std::string& path) {
  SC_RETURN_NOT_OK(sample.records.ToCsvFile(path));
  std::ofstream meta(path + ".meta");
  if (!meta) return Status::IOError("cannot write " + path + ".meta");
  meta << "theta=" << sample.theta << "\n"
       << "queries_spent=" << sample.queries_spent << "\n"
       << "estimated_hidden_size=" << sample.estimated_hidden_size << "\n";
  if (!meta) return Status::IOError("write failed: " + path + ".meta");
  return Status::OK();
}

Result<HiddenSample> LoadHiddenSample(const std::string& path) {
  HiddenSample out;
  SC_ASSIGN_OR_RETURN(out.records, table::Table::FromCsvFile(path));
  std::ifstream meta(path + ".meta");
  if (!meta) return Status::IOError("cannot read " + path + ".meta");
  std::string line;
  while (std::getline(meta, line)) {
    auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string_view key(line.data(), eq);
    const std::string_view value = std::string_view(line).substr(eq + 1);
    bool ok = true;
    if (key == "theta") {
      ok = ParseFull(value, &out.theta) && out.theta > 0.0 && out.theta <= 1.0;
    } else if (key == "queries_spent") {
      ok = ParseFull(value, &out.queries_spent);
    } else if (key == "estimated_hidden_size") {
      ok = ParseFull(value, &out.estimated_hidden_size) &&
           out.estimated_hidden_size >= 0.0;
    }
    if (!ok) {
      return Status::InvalidArgument("bad sample metadata line '" + line +
                                     "' in " + path + ".meta");
    }
  }
  if (out.theta <= 0.0) {
    return Status::InvalidArgument("sample metadata has no positive theta: " +
                                   path + ".meta");
  }
  return out;
}

Result<HiddenSample> KeywordSample(hidden::KeywordSearchInterface* iface,
                                   const std::vector<std::string>& query_pool,
                                   const KeywordSamplerOptions& options) {
  if (query_pool.empty()) {
    return Status::InvalidArgument("keyword sampler needs a query pool");
  }
  Rng rng(options.seed);
  const size_t k = iface->top_k();

  // Lower-cased pool set for client-side deg(h) computation.
  std::unordered_set<std::string> pool_set;
  for (const auto& q : query_pool) {
    for (auto& t : text::Tokenize(q)) pool_set.insert(std::move(t));
  }

  HiddenSample out;
  size_t queries = 0;
  bool out_of_budget = false;
  // Failed Search attempts (kUnavailable surviving any resilience layers
  // below us). They consume no provider budget, but an endpoint that is
  // down for good must not spin the sampler forever — give up once the
  // failures alone exceed the query cap.
  size_t unavailable_attempts = 0;
  std::unordered_map<uint64_t, size_t> seen;  // record key -> sample index
  // Accepted draws in order (with repetition) for capture–recapture.
  std::vector<uint64_t> draws;

  while (seen.size() < options.target_sample_size && !out_of_budget &&
         queries < options.max_queries &&
         unavailable_attempts <= options.max_queries) {
    // Random walk: start from one random pool keyword; while the page comes
    // back full (possible overflow, contents ranking-biased), refine the
    // query with a keyword from a random record of the page.
    std::vector<std::string> query = {
        query_pool[rng.UniformIndex(query_pool.size())]};
    hidden::PageRef page;
    bool solid = false;
    for (size_t depth = 0; depth <= kMaxRefinements; ++depth) {
      auto page_or = iface->SearchPage(query);
      if (!page_or.ok()) {
        if (page_or.status().IsBudgetExhausted()) out_of_budget = true;
        if (page_or.status().IsUnavailable()) ++unavailable_attempts;
        break;  // abandon this walk, draw a fresh start keyword
      }
      ++queries;
      page = std::move(page_or).value();
      if (options.page_observer) options.page_observer(query, page->records());
      if (page->empty()) break;
      if (page->size() < k) {
        solid = true;
        break;
      }
      // Refine: conjoin a keyword of a random returned record.
      const table::Record& pivot =
          page->records()[rng.UniformIndex(page->size())];
      std::vector<std::string> words;
      for (const std::string& field : pivot.fields) {
        for (auto& t : text::Tokenize(field)) words.push_back(std::move(t));
      }
      if (words.empty()) break;
      query.push_back(words[rng.UniformIndex(words.size())]);
    }
    if (!solid || page->empty()) continue;  // solid implies a page

    const table::Record& rec = page->records()[rng.UniformIndex(page->size())];
    // deg(h): how many pool keywords this record contains — computable
    // client-side from the returned record text.
    size_t deg = 0;
    std::unordered_set<std::string> rec_tokens;
    for (const std::string& field : rec.fields) {
      for (auto& t : text::Tokenize(field)) rec_tokens.insert(std::move(t));
    }
    for (const auto& t : rec_tokens) {
      if (pool_set.count(t)) ++deg;
    }
    if (deg == 0) deg = 1;
    if (!rng.Bernoulli(1.0 / static_cast<double>(deg))) continue;

    uint64_t key = table::DedupKey(rec);
    draws.push_back(key);
    if (!seen.count(key)) {
      if (out.records.schema().num_fields() == 0) {
        // Infer a positional schema on first acceptance (the interface does
        // not expose the hidden schema; field count is what we observe).
        table::Schema s;
        for (size_t i = 0; i < rec.fields.size(); ++i) {
          s.field_names.push_back("f" + std::to_string(i));
        }
        out.records = table::Table(std::move(s));
      }
      auto appended = out.records.Append(rec.fields, rec.entity_id);
      if (appended.ok()) seen.emplace(key, *appended);
    }
  }
  out.queries_spent = queries;

  // Chapman capture–recapture between the two halves of the draw sequence
  // estimates the (reachable) hidden population size.
  out.estimated_hidden_size = ChapmanFromDraws(draws);
  out.theta = out.estimated_hidden_size > 0
                  ? static_cast<double>(seen.size()) / out.estimated_hidden_size
                  : 0.0;
  if (seen.empty()) {
    return Status::NotFound("keyword sampler accepted no records");
  }
  return out;
}

}  // namespace smartcrawl::sample
