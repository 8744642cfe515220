#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hidden/search_interface.h"
#include "net/clock.h"
#include "util/random.h"

/// \file resilient_client.h
/// Retry / backoff / circuit-breaker layer of the transport stack.
///
/// ResilientClient turns a flaky KeywordSearchInterface into one that
/// almost always answers: retryable failures (StatusCode::kUnavailable)
/// are retried with exponential backoff plus deterministic seeded jitter,
/// rate-limit retry-after hints are honoured, and a circuit breaker stops
/// hammering an endpoint that keeps failing. All waiting happens on the
/// shared SimulatedClock — no real sleeps.
///
/// Stacking order (see docs/architecture.md "Transport stack"): the
/// canonical order is
///
///   cache -> resilient -> quota -> budget -> faults -> hidden DB
///
/// i.e. the resilient client sits OUTSIDE the budget decorators. Failed
/// attempts never consume crawl budget in either stacking order, because
/// BudgetedInterface / DailyQuotaInterface only meter queries the engine
/// actually accepts; the canonical order is preferred because it also lets
/// a kBudgetExhausted from the quota layer pass through un-retried (it is
/// terminal, not transient) and keeps per-attempt accounting out of the
/// budget layer's view.

namespace smartcrawl::net {

struct RetryOptions {
  /// Attempts per Search call, including the first (1 = no retries).
  size_t max_attempts = 4;

  /// Exponential backoff: wait base * multiplier^retry_index, clamped to
  /// max_backoff_ms, before each retry.
  uint64_t base_backoff_ms = 100;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ms = 10000;

  /// Deterministic jitter: the actual wait is backoff * (1 + u), with u
  /// drawn uniformly from [-jitter_fraction, +jitter_fraction] by a seeded
  /// generator. Decorrelates retry storms without losing reproducibility.
  double jitter_fraction = 0.1;
  uint64_t seed = 0;

  /// Lifetime cap on retries across ALL Search calls. A pathological
  /// endpoint can therefore waste at most this many extra attempts, no
  /// matter how many queries a crawl issues. SIZE_MAX = unlimited.
  size_t retry_budget = SIZE_MAX;

  /// Circuit breaker: trips after this many CONSECUTIVE failed attempts;
  /// while open, traffic pauses until `breaker_cooldown_ms` of simulated
  /// time has passed, then one probe is allowed (half-open). A call that
  /// arrives while the breaker is open waits out the cooldown on the
  /// simulated clock: budget-bound crawls would rather spend simulated
  /// time than lose a query.
  size_t breaker_threshold = 8;
  uint64_t breaker_cooldown_ms = 30000;
};

/// Retry-layer counters (part of net::TransportStats).
struct RetryStats {
  size_t attempts = 0;        ///< inner SearchPage calls made
  size_t successes = 0;       ///< Search calls that returned a page
  size_t retries = 0;         ///< extra attempts after a retryable failure
  size_t gave_up = 0;         ///< Search calls that escaped as kUnavailable
  size_t breaker_trips = 0;   ///< closed/half-open -> open transitions
  uint64_t backoff_wait_ms = 0;   ///< simulated time spent backing off
  uint64_t breaker_wait_ms = 0;   ///< simulated time waiting out cooldowns
};

class ResilientClient : public hidden::KeywordSearchInterface {
 public:
  /// `inner` must outlive this decorator. `clock` is optional: without one
  /// the waits are still accounted in stats() but no time advances.
  ResilientClient(hidden::KeywordSearchInterface* inner, RetryOptions options,
                  SimulatedClock* clock = nullptr)
      : inner_(inner), options_(options), clock_(clock), rng_(options.seed) {}

  Result<hidden::PageRef> SearchPage(
      const std::vector<std::string>& keywords) override;
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  const RetryStats& stats() const { return stats_; }

  /// True while the breaker is open (cooldown deadline in the future).
  bool breaker_open() const {
    return open_until_ms_ > (clock_ != nullptr ? clock_->now_ms() : 0);
  }

 private:
  /// Backoff (with jitter and retry-after floor) before retry number
  /// `retry_index` (0-based).
  uint64_t BackoffMs(size_t retry_index, uint64_t retry_after_hint_ms);

  hidden::KeywordSearchInterface* inner_;
  RetryOptions options_;
  SimulatedClock* clock_;
  Rng rng_;
  RetryStats stats_;

  size_t consecutive_failures_ = 0;
  size_t retries_used_ = 0;
  uint64_t open_until_ms_ = 0;
};

}  // namespace smartcrawl::net
