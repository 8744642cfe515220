#pragma once

#include <string>
#include <vector>

#include "hidden/search_interface.h"

/// \file daily_quota.h
/// Per-day request quotas, the constraint that motivates the whole paper
/// ("Yelp API is restricted to 25,000 free requests per day; Google Maps
/// API only allows 2,500 free requests per day", Sec. 1).
///
/// DailyQuotaInterface rejects queries once the day's quota is spent;
/// AdvanceDay() models waiting for the next day. A crawler driven across
/// several simulated days can spend b > quota total queries — the
/// decorator keeps per-day and lifetime counts.
///
/// Stacking order with the net:: layers (see docs/architecture.md,
/// "Transport stack"): the canonical order places the quota INSIDE the
/// resilient client and OUTSIDE the fault injector,
///
///   cache -> resilient -> quota -> budget -> faults -> hidden DB.
///
/// The quota meters what the PROVIDER serves, not what the caller asks:
/// Search charges the day's quota by the inner chain's accepted-query
/// delta rather than by `result.ok()`. A net::CachingInterface placed
/// inside this decorator (quota -> cache -> ...) therefore serves hits
/// without consuming quota, and a faulted attempt that never reached the
/// engine is free — matching how real APIs bill. Caveat of delta
/// accounting: the inner chain must not be shared with concurrently
/// querying users, or the delta would misattribute their traffic (the
/// per-arm experiment harness gives each arm its own stack, as required).

namespace smartcrawl::hidden {

class DailyQuotaInterface : public KeywordSearchInterface {
 public:
  /// `inner` must outlive this decorator.
  DailyQuotaInterface(KeywordSearchInterface* inner, size_t quota_per_day)
      : inner_(inner), quota_(quota_per_day) {}

  Result<PageRef> SearchPage(
      const std::vector<std::string>& keywords) override {
    if (used_today_ >= quota_) {
      return Status::BudgetExhausted(
          "daily quota of " + std::to_string(quota_) +
          " requests exhausted (day " + std::to_string(day_) + ")");
    }
    size_t before = inner_->num_queries_issued();
    auto result = inner_->SearchPage(keywords);
    size_t issued = inner_->num_queries_issued() - before;
    used_today_ += issued;
    total_ += issued;
    return result;
  }
  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override { return total_; }

  /// Moves to the next day: the daily counter resets.
  void AdvanceDay() {
    ++day_;
    used_today_ = 0;
  }

  size_t day() const { return day_; }
  size_t used_today() const { return used_today_; }
  /// Saturates at 0 if an inner decorator ever over-issues (see
  /// BudgetedInterface::remaining()).
  size_t remaining_today() const {
    return used_today_ >= quota_ ? 0 : quota_ - used_today_;
  }

 private:
  KeywordSearchInterface* inner_;
  size_t quota_;
  size_t used_today_ = 0;
  size_t total_ = 0;
  size_t day_ = 0;
};

}  // namespace smartcrawl::hidden
