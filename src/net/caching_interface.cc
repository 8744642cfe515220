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

Result<std::vector<table::Record>> CachingInterface::Search(
    const std::vector<std::string>& keywords) {
  if (capacity_ == 0) return inner_->Search(keywords);

  std::string key = NormalizedKey(keywords);
  // The lock is held across the inner call on purpose: concurrent callers
  // must not race the insert, and the layers below are not thread-safe.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->page;  // copy: callers own their pages
  }
  ++stats_.misses;

  Result<std::vector<table::Record>> result = inner_->Search(keywords);
  if (!result.ok()) return result;
  std::vector<table::Record> page = std::move(result).value();

  entries_.push_front(Entry{std::move(key), page});
  index_[entries_.front().key] = entries_.begin();
  ++stats_.insertions;
  EvictIfOverCapacity();
  return page;
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
