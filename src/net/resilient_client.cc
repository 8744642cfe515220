#include "net/resilient_client.h"

#include <algorithm>
#include <cmath>

namespace smartcrawl::net {

uint64_t ResilientClient::BackoffMs(size_t retry_index,
                                    uint64_t retry_after_hint_ms) {
  double backoff = static_cast<double>(options_.base_backoff_ms) *
                   std::pow(options_.backoff_multiplier,
                            static_cast<double>(retry_index));
  backoff = std::min(backoff, static_cast<double>(options_.max_backoff_ms));
  if (options_.jitter_fraction > 0.0) {
    double u = 2.0 * rng_.UniformDouble() - 1.0;  // [-1, 1)
    backoff *= 1.0 + u * options_.jitter_fraction;
  }
  uint64_t wait = backoff <= 0.0 ? 0 : static_cast<uint64_t>(backoff);
  // A rate-limit hint is a floor: retrying earlier would just burn an
  // attempt on another rejection.
  return std::max(wait, retry_after_hint_ms);
}

Result<hidden::PageRef> ResilientClient::SearchPage(
    const std::vector<std::string>& keywords) {
  Status last = Status::Unavailable("no attempt made");
  for (size_t attempt = 0; attempt < std::max<size_t>(options_.max_attempts, 1);
       ++attempt) {
    if (breaker_open()) {
      if (options_.fail_fast_when_open) {
        ++stats_.breaker_fast_fails;
        return Status::Unavailable("circuit breaker open");
      }
      // Wait out the cooldown on the simulated clock, then half-open: this
      // attempt is the probe.
      uint64_t now = clock_ != nullptr ? clock_->now_ms() : 0;
      stats_.breaker_wait_ms += open_until_ms_ - now;
      if (clock_ != nullptr) clock_->AdvanceTo(open_until_ms_);
    }

    ++stats_.attempts;
    auto result = inner_->SearchPage(keywords);
    if (result.ok()) {
      ++stats_.successes;
      consecutive_failures_ = 0;
      open_until_ms_ = 0;  // a half-open probe succeeding closes the breaker
      return result;
    }
    Status st = result.status();
    if (!st.IsUnavailable()) {
      // Terminal: budget exhaustion, invalid queries etc. are not
      // transport failures and must not be retried.
      return result;
    }
    last = st;
    ++consecutive_failures_;
    if (consecutive_failures_ >= options_.breaker_threshold) {
      uint64_t now = clock_ != nullptr ? clock_->now_ms() : 0;
      open_until_ms_ = now + options_.breaker_cooldown_ms;
      ++stats_.breaker_trips;
      consecutive_failures_ = 0;
    }
    if (attempt + 1 >= options_.max_attempts) break;
    if (retries_used_ >= options_.retry_budget) break;
    ++retries_used_;
    ++stats_.retries;
    uint64_t wait = BackoffMs(attempt, st.retry_after_ms());
    stats_.backoff_wait_ms += wait;
    if (clock_ != nullptr) clock_->Advance(wait);
  }
  ++stats_.gave_up;
  return last;
}

}  // namespace smartcrawl::net
