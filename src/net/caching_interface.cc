#include "net/caching_interface.h"

#include <algorithm>

#include "util/string_util.h"

namespace smartcrawl::net {

std::string CachingInterface::NormalizedKey(
    const std::vector<std::string>& keywords) {
  std::vector<std::string> normalized;
  normalized.reserve(keywords.size());
  for (const std::string& kw : keywords) normalized.push_back(ToLower(kw));
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  // '\x1f' (ASCII unit separator) cannot appear inside a tokenized keyword,
  // so the join is collision-free.
  return Join(normalized, "\x1f");
}

Result<hidden::PageRef> CachingInterface::SearchPage(
    const std::vector<std::string>& keywords) {
  if (capacity_ == 0) return inner_->SearchPage(keywords);

  std::string key = NormalizedKey(keywords);
  // The lock is held across the inner call on purpose: concurrent callers
  // must not race the insert, and the layers below are not thread-safe.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->page;  // the shared page: a refcount bump
  }
  ++stats_.misses;

  Result<hidden::PageRef> result = inner_->SearchPage(keywords);
  if (!result.ok()) return result;

  entries_.push_front(Entry{std::move(key), *result});
  index_[entries_.front().key] = entries_.begin();
  ++stats_.insertions;
  EvictIfOverCapacity();
  return result;
}

void CachingInterface::EvictIfOverCapacity() {
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats CachingInterface::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t CachingInterface::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace smartcrawl::net
