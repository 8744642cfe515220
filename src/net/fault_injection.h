#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hidden/search_interface.h"
#include "net/clock.h"
#include "util/random.h"

/// \file fault_injection.h
/// Deterministic fault model for the hidden-database client path.
///
/// Real deep-web endpoints are metered remote APIs: they time out, return
/// 429s with a Retry-After header, and occasionally ship short or
/// duplicated result pages. FaultInjectingInterface wraps any
/// KeywordSearchInterface with a seeded model of exactly those behaviours,
/// so the resilience layers above it (net::ResilientClient,
/// net::CachingInterface) and the crawl loops can be exercised under
/// hostile conditions while every run stays bit-reproducible.
///
/// Faults are decided BEFORE the inner interface is consulted: a faulted
/// attempt never reaches the engine and therefore never advances its
/// accepted-query counter (i.e. it costs no provider budget — exactly like
/// a request dropped on the network).

namespace smartcrawl::net {

struct FaultOptions {
  /// Probability that an attempt fails with a retryable kUnavailable
  /// ("connection reset", timeout, 5xx).
  double transient_fault_rate = 0.0;

  /// Probability that an attempt is rejected with a rate-limit error
  /// carrying a retry-after hint of `retry_after_ms`.
  double rate_limit_rate = 0.0;
  uint64_t retry_after_ms = 1000;

  /// Probability that a successful result page is truncated to a random
  /// strict prefix (models flaky pagination). Only pages with >= 2 records
  /// can be truncated. Off by default: truncation changes what the crawler
  /// observes, so it is opt-in for robustness experiments.
  double truncate_rate = 0.0;

  /// Probability that a successful result page carries one duplicated
  /// record (models retried server-side writes / pagination overlap).
  double duplicate_rate = 0.0;

  /// Simulated per-attempt latency: base + uniform jitter in
  /// [0, latency_jitter_ms]. Advances the shared SimulatedClock; no real
  /// sleeping anywhere.
  uint64_t latency_ms = 0;
  uint64_t latency_jitter_ms = 0;

  /// Seed for the fault stream. Two injectors with equal options produce
  /// identical fault sequences.
  uint64_t seed = 0;
};

/// Per-kind fault counters (part of net::TransportStats).
struct FaultStats {
  size_t attempts_seen = 0;
  size_t transient_faults = 0;
  size_t rate_limited = 0;
  size_t truncated_pages = 0;
  size_t duplicated_pages = 0;
  uint64_t simulated_latency_ms = 0;
};

class FaultInjectingInterface : public hidden::KeywordSearchInterface {
 public:
  /// `inner` must outlive this decorator. `clock` is optional; when given,
  /// the latency model advances it on every attempt.
  FaultInjectingInterface(hidden::KeywordSearchInterface* inner,
                          FaultOptions options,
                          SimulatedClock* clock = nullptr)
      : inner_(inner), options_(options), clock_(clock), rng_(options.seed) {}

  /// Passes the inner page handle through untouched; builds a new page
  /// only when it truncates or duplicates.
  Result<hidden::PageRef> SearchPage(
      const std::vector<std::string>& keywords) override;
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  size_t top_k() const override { return inner_->top_k(); }
  /// Faulted attempts never reach the engine, so the accepted-query count
  /// is the inner interface's (provider-side accounting is fault-blind).
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  const FaultStats& stats() const { return stats_; }

 private:
  hidden::KeywordSearchInterface* inner_;
  FaultOptions options_;
  SimulatedClock* clock_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace smartcrawl::net
