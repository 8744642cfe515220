#include "hidden/budget.h"

namespace smartcrawl::hidden {

Result<PageRef> BudgetedInterface::SearchPage(
    const std::vector<std::string>& keywords) {
  if (exhausted()) {
    return Status::BudgetExhausted("query budget of " +
                                   std::to_string(budget_) + " exhausted");
  }
  auto result = inner_->SearchPage(keywords);
  // Rejected queries (e.g. all-stop-word) are not counted by the provider
  // and so do not consume budget.
  if (result.ok()) ++used_;
  return result;
}

}  // namespace smartcrawl::hidden
