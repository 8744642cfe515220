#include "core/page_match_memo.h"

#include <algorithm>
#include <functional>
#include <string>

#include "util/hash.h"

namespace smartcrawl::core {

namespace {

bool SameIds(
    const std::vector<std::pair<table::RecordId, table::EntityId>>& ids,
    const std::vector<table::Record>& page) {
  return std::equal(ids.begin(), ids.end(), page.begin(), page.end(),
                    [](const auto& id, const table::Record& rec) {
                      return id.first == rec.id && id.second == rec.entity_id;
                    });
}

/// Hash of a record's fields, each one length-delimited by its own hash.
uint64_t ContentHash(const table::Record& rec) {
  size_t h = rec.fields.size();
  for (const std::string& field : rec.fields) {
    HashCombine(h, HashBytes64(field.data(), field.size()));
  }
  return h;
}

}  // namespace

size_t PageMatchMemo::KeyHash::operator()(const Key& k) const {
  size_t h = std::hash<const CrawlPlan*>{}(k.plan);
  HashCombine(h, k.query);
  HashCombine(h, k.fingerprint);
  return h;
}

size_t PageMatchMemo::RecordKeyHash::operator()(const RecordKey& k) const {
  size_t h = k.content;
  HashCombine(h, k.id);
  return h;
}

std::vector<text::Document> PageMatchMemo::PageDocuments(
    const CrawlPlan& plan, const std::vector<table::Record>& records) {
  const size_t n = records.size();
  std::vector<RecordKey> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = RecordKey{records[i].id, ContentHash(records[i])};
  }
  std::vector<const text::TokenSet*> tokens(n, nullptr);
  std::vector<size_t> missing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      auto it = record_tokens_.find(keys[i]);
      if (it != record_tokens_.end()) {
        tokens[i] = &it->second;  // immutable until Clear()
      } else {
        missing.push_back(i);
      }
    }
    record_token_hits_ += n - missing.size();
  }
  if (!missing.empty()) {
    std::vector<text::TokenSet> fresh;
    fresh.reserve(missing.size());
    for (size_t i : missing) {
      fresh.emplace_back(records[i].fields);
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t m = 0; m < missing.size(); ++m) {
      // First writer wins: a racing call (or a duplicate of this record
      // earlier on the page) may have cached the same pure value.
      auto [it, inserted] =
          record_tokens_.try_emplace(keys[missing[m]], std::move(fresh[m]));
      ++(inserted ? record_token_misses_ : record_token_hits_);
      tokens[missing[m]] = &it->second;
    }
  }
  std::vector<text::Document> docs;
  docs.reserve(n);
  for (const text::TokenSet* t : tokens) {
    docs.push_back(text::Document::FromTokensFrozen(*t, plan.dict()));
  }
  return docs;
}

std::vector<table::RecordId> PageMatchMemo::Match(
    const CrawlPlan& plan, QueryIdx q, const hidden::Page& page,
    std::span<const uint8_t> removed) {
  const std::vector<table::Record>& records = page.records();
  // The entity-oracle mode matches by a hash lookup per record, cheaper
  // than a memo lookup; only text matching is worth sharing.
  if (!plan.needs_page_documents()) {
    return plan.MatchPage(q, records, removed);
  }

  const Key key{&plan, q, page.fingerprint()};
  const std::vector<table::RecordId>* all = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && SameIds(it->second.ids, records)) {
      ++hits_;
      all = &it->second.matches;  // immutable until Clear()
    } else {
      ++misses_;
    }
  }
  std::vector<table::RecordId> computed;
  if (all == nullptr) {
    const std::vector<text::Document> docs = PageDocuments(plan, records);
    computed = plan.MatchPreparedPage(q, records, &docs, /*removed=*/{});
    Entry entry;
    entry.ids.reserve(records.size());
    for (const table::Record& rec : records) {
      entry.ids.emplace_back(rec.id, rec.entity_id);
    }
    entry.matches = computed;
    std::lock_guard<std::mutex> lock(mu_);
    // A racing session may have inserted the same pure value first; on a
    // fingerprint collision with a different page the first entry stays
    // and this page is simply not memoized.
    entries_.try_emplace(key, std::move(entry));
    all = &computed;
  }
  if (removed.empty()) return *all;
  std::vector<table::RecordId> active;
  active.reserve(all->size());
  for (table::RecordId d : *all) {
    if (!removed[d]) active.push_back(d);
  }
  return active;
}

PageMatchMemo::Stats PageMatchMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, entries_.size(), record_token_hits_,
               record_token_misses_};
}

void PageMatchMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  record_tokens_.clear();
}

}  // namespace smartcrawl::core
