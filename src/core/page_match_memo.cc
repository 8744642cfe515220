#include "core/page_match_memo.h"

#include <algorithm>
#include <functional>

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

}  // namespace

size_t PageMatchMemo::KeyHash::operator()(const Key& k) const {
  size_t h = std::hash<const CrawlPlan*>{}(k.plan);
  HashCombine(h, k.query);
  HashCombine(h, k.fingerprint);
  return h;
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
    computed = plan.MatchPage(q, records, /*removed=*/{});
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
  return Stats{hits_, misses_, entries_.size()};
}

void PageMatchMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace smartcrawl::core
