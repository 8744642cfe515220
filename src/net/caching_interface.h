#pragma once

#include <cassert>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hidden/search_interface.h"
#include "util/thread_annotations.h"

/// \file caching_interface.h
/// Bounded LRU query-result cache for the hidden-database client path.
///
/// The same keyword query against the same (static, deterministic) hidden
/// engine always returns the same page, so repeated queries — online
/// sampling followed by crawling over one endpoint, multi-arm experiments
/// sharing a provider, QSEL-BOUND re-issuing a kept query — can be served
/// from a client-side cache instead of burning metered quota. Entries are
/// keyed on the NORMALIZED keyword set (lowercased, sorted, deduplicated),
/// so {"Noodle", "house"} and {"house", "noodle", "noodle"} share one
/// entry, mirroring the engine's own set semantics.
///
/// Entries hold the page handle (hidden::PageRef), not a copy: every hit
/// on an entry returns the same immutable page object, so a hit copies no
/// records, and the page lives on while any caller still holds it after
/// eviction. Search() copies the records out for callers that want their
/// own.
///
/// Only successful pages are cached; errors (including kUnavailable from
/// lower layers) always pass through. In the canonical stack the cache is
/// the OUTERMOST layer — a hit costs neither a retry attempt nor budget.
///
/// Thread safety: a shared cache is the one transport layer that
/// concurrent tenants of a multi-tenant CrawlService may touch at once, so
/// the LRU state is guarded by one mutex (SC_GUARDED_BY below; enforced by
/// sc-guarded-by and Clang -Wthread-safety). A miss keeps that lock held
/// across the inner SearchPage: the decorated layers beneath (budget, quota,
/// fault injection) are deliberately unsynchronized, and funneling every
/// inner call through the cache's lock keeps their bookkeeping race-free.

namespace smartcrawl::net {

/// Cache counters (part of net::TransportStats).
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t insertions = 0;

  double hit_rate() const {
    size_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class CachingInterface : public hidden::KeywordSearchInterface {
 public:
  /// `inner` must outlive this decorator. `capacity` is the maximum
  /// number of cached pages; 0 disables caching (pure pass-through).
  CachingInterface(hidden::KeywordSearchInterface* inner, size_t capacity)
      : inner_(inner), capacity_(capacity) {}

  /// Source compatibility with perfbench/e2e_bench.cc, which was written
  /// against a sharded cache: the cache has exactly one shard, so
  /// `num_shards` must be 1 (core::CrawlServiceOptions::shared_cache_shards).
  CachingInterface(hidden::KeywordSearchInterface* inner, size_t capacity,
                   [[maybe_unused]] size_t num_shards)
      : CachingInterface(inner, capacity) {
    assert(num_shards == 1 && "the cache has one shard");
  }

  /// A hit returns the stored handle: the same immutable page object for
  /// every caller, copied by no one.
  Result<hidden::PageRef> SearchPage(
      const std::vector<std::string>& keywords) override;
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  size_t top_k() const override { return inner_->top_k(); }
  /// Cache hits issue nothing: the provider-side count is the inner one.
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  /// Counters by value: the referents keep mutating under concurrent
  /// Search calls while the caller reads them.
  CacheStats stats() const SC_EXCLUDES(mu_);
  size_t size() const SC_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// The canonical cache key for a keyword set (exposed for tests).
  static std::string NormalizedKey(const std::vector<std::string>& keywords);

 private:
  struct Entry {
    std::string key;
    hidden::PageRef page;
  };

  /// Drops least-recently-used entries until entries_.size() <= capacity_.
  void EvictIfOverCapacity() SC_REQUIRES(mu_);

  hidden::KeywordSearchInterface* inner_;
  const size_t capacity_;
  /// Guards the LRU state and, on a miss, the inner SearchPage (see file
  /// comment).
  mutable std::mutex mu_;
  /// Most-recently-used at the front.
  std::list<Entry> entries_ SC_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      SC_GUARDED_BY(mu_);
  CacheStats stats_ SC_GUARDED_BY(mu_);
};

}  // namespace smartcrawl::net
