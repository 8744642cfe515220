#include "net/fault_injection.h"

#include <cstddef>
#include <utility>

namespace smartcrawl::net {

Result<hidden::PageRef> FaultInjectingInterface::SearchPage(
    const std::vector<std::string>& keywords) {
  ++stats_.attempts_seen;

  // Latency is paid by every attempt, faulted or not: a timed-out request
  // still spent its round trip.
  uint64_t latency = options_.latency_ms;
  if (options_.latency_jitter_ms > 0) {
    latency += rng_.UniformIndex(options_.latency_jitter_ms + 1);
  }
  stats_.simulated_latency_ms += latency;
  if (clock_ != nullptr) clock_->Advance(latency);

  // Fault fate is drawn in a fixed order so the stream is reproducible
  // regardless of which rates are zero.
  if (rng_.Bernoulli(options_.rate_limit_rate)) {
    ++stats_.rate_limited;
    return Status::RateLimited("injected rate limit",
                               options_.retry_after_ms);
  }
  if (rng_.Bernoulli(options_.transient_fault_rate)) {
    ++stats_.transient_faults;
    return Status::Unavailable("injected transient transport failure");
  }

  auto result = inner_->SearchPage(keywords);
  if (!result.ok()) return result;
  const std::vector<table::Record>& served = (*result)->records();

  // An unfaulted page is passed through as the inner handle; a faulted one
  // is a new page, so the variant never leaks into the shared original.
  std::vector<table::Record> faulted;
  bool changed = false;
  if (served.size() >= 2 && rng_.Bernoulli(options_.truncate_rate)) {
    // Keep a uniform strict prefix of length in [1, size-1].
    auto keep =
        static_cast<ptrdiff_t>(1 + rng_.UniformIndex(served.size() - 1));
    faulted.assign(served.begin(), served.begin() + keep);
    changed = true;
    ++stats_.truncated_pages;
  }
  const std::vector<table::Record>& page = changed ? faulted : served;
  if (!page.empty() && rng_.Bernoulli(options_.duplicate_rate)) {
    const auto dup = static_cast<size_t>(rng_.UniformIndex(page.size()));
    if (!changed) {
      faulted.reserve(served.size() + 1);
      faulted.assign(served.begin(), served.end());
      changed = true;
    }
    faulted.push_back(faulted[dup]);
    ++stats_.duplicated_pages;
  }
  if (!changed) return result;
  return hidden::MakePage(std::move(faulted));
}

}  // namespace smartcrawl::net
