#pragma once

#include <string>
#include <vector>

#include "hidden/search_interface.h"

/// \file budget.h
/// Budget enforcement around a keyword-search interface.
///
/// Real APIs meter requests (Yelp: 25,000/day; Google Maps: 2,500/day).
/// BudgetedInterface decorates any KeywordSearchInterface with a hard cap:
/// once `budget` accepted queries have been issued through it, further
/// Search calls fail with BudgetExhausted. Crawlers run against this
/// decorator so that "number of issued queries <= b" is enforced by
/// construction, not by crawler discipline.

namespace smartcrawl::hidden {

class BudgetedInterface : public KeywordSearchInterface {
 public:
  /// `inner` must outlive this decorator.
  BudgetedInterface(KeywordSearchInterface* inner, size_t budget)
      : inner_(inner), budget_(budget) {}

  [[nodiscard]] Result<PageRef> SearchPage(
      const std::vector<std::string>& keywords) override;
  [[nodiscard]] Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    return CopyOutOfSearchPage(keywords);
  }

  [[nodiscard]] size_t top_k() const override { return inner_->top_k(); }
  [[nodiscard]] size_t num_queries_issued() const override { return used_; }

  [[nodiscard]] size_t budget() const { return budget_; }
  /// Queries left before exhaustion. Guarded against underflow: should
  /// `used_` ever exceed `budget_` (e.g. an inner decorator that issues
  /// more than one provider query per Search), this saturates at 0 rather
  /// than wrapping around to SIZE_MAX.
  [[nodiscard]] size_t remaining() const { return used_ >= budget_ ? 0 : budget_ - used_; }
  [[nodiscard]] bool exhausted() const { return used_ >= budget_; }

 private:
  KeywordSearchInterface* inner_;
  size_t budget_;
  size_t used_ = 0;
};

}  // namespace smartcrawl::hidden
