#include "net/resilient_client.h"

#include <gtest/gtest.h>

#include "hidden/budget.h"
#include "hidden/daily_quota.h"
#include "hidden/hidden_database.h"
#include "net/fault_injection.h"

namespace smartcrawl::net {
namespace {

/// Scripted inner interface: fails the first `fail_count` Search calls
/// with `failure`, then serves a fixed one-record page.
class FailNTimesInterface : public hidden::KeywordSearchInterface {
 public:
  FailNTimesInterface(size_t fail_count, Status failure)
      : fail_count_(fail_count), failure_(std::move(failure)) {
    table::Record rec;
    rec.id = 0;
    rec.entity_id = 7;
    rec.fields = {"payload"};
    page_.push_back(std::move(rec));
  }

  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& /*keywords*/) override {
    ++calls_;
    if (calls_ <= fail_count_) return failure_;
    ++issued_;
    return page_;
  }

  size_t top_k() const override { return 10; }
  size_t num_queries_issued() const override { return issued_; }
  size_t calls() const { return calls_; }

 private:
  size_t fail_count_;
  Status failure_;
  std::vector<table::Record> page_;
  size_t calls_ = 0;
  size_t issued_ = 0;
};

RetryOptions NoJitter(size_t max_attempts) {
  RetryOptions opt;
  opt.max_attempts = max_attempts;
  opt.jitter_fraction = 0.0;
  return opt;
}

TEST(NetResilientClientTest, RetriesTransientFailuresUntilSuccess) {
  FailNTimesInterface inner(2, Status::Unavailable("flaky"));
  SimulatedClock clock;
  ResilientClient client(&inner, NoJitter(4), &clock);
  auto r = client.Search({"q"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(inner.calls(), 3u);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().successes, 1u);
  EXPECT_EQ(client.stats().gave_up, 0u);
}

TEST(NetResilientClientTest, ExponentialBackoffOnSimulatedClock) {
  FailNTimesInterface inner(3, Status::Unavailable("flaky"));
  SimulatedClock clock;
  RetryOptions opt = NoJitter(4);
  opt.base_backoff_ms = 100;
  opt.backoff_multiplier = 2.0;
  ResilientClient client(&inner, opt, &clock);
  ASSERT_TRUE(client.Search({"q"}).ok());
  // Waits: 100 + 200 + 400.
  EXPECT_EQ(clock.now_ms(), 700u);
  EXPECT_EQ(client.stats().backoff_wait_ms, 700u);
}

TEST(NetResilientClientTest, BackoffClampedToMax) {
  FailNTimesInterface inner(4, Status::Unavailable("flaky"));
  SimulatedClock clock;
  RetryOptions opt = NoJitter(5);
  opt.base_backoff_ms = 100;
  opt.max_backoff_ms = 250;
  ResilientClient client(&inner, opt, &clock);
  ASSERT_TRUE(client.Search({"q"}).ok());
  // Waits: 100 + 200 + 250 + 250.
  EXPECT_EQ(clock.now_ms(), 800u);
}

TEST(NetResilientClientTest, JitterIsDeterministicPerSeed) {
  auto total_wait = [](uint64_t seed) {
    FailNTimesInterface inner(3, Status::Unavailable("flaky"));
    SimulatedClock clock;
    RetryOptions opt;
    opt.max_attempts = 4;
    opt.jitter_fraction = 0.5;
    opt.seed = seed;
    ResilientClient client(&inner, opt, &clock);
    EXPECT_TRUE(client.Search({"q"}).ok());
    return clock.now_ms();
  };
  EXPECT_EQ(total_wait(5), total_wait(5));
  EXPECT_NE(total_wait(5), total_wait(6));
}

TEST(NetResilientClientTest, HonorsRetryAfterHintAsFloor) {
  FailNTimesInterface inner(1, Status::RateLimited("429", 5000));
  SimulatedClock clock;
  RetryOptions opt = NoJitter(2);
  opt.base_backoff_ms = 100;  // hint (5000) dominates
  ResilientClient client(&inner, opt, &clock);
  ASSERT_TRUE(client.Search({"q"}).ok());
  EXPECT_EQ(clock.now_ms(), 5000u);
}

TEST(NetResilientClientTest, GivesUpAfterMaxAttempts) {
  FailNTimesInterface inner(100, Status::Unavailable("down"));
  SimulatedClock clock;
  ResilientClient client(&inner, NoJitter(3), &clock);
  auto r = client.Search({"q"});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(inner.calls(), 3u);
  EXPECT_EQ(client.stats().gave_up, 1u);
}

TEST(NetResilientClientTest, TerminalErrorsAreNotRetried) {
  {
    FailNTimesInterface inner(100, Status::InvalidArgument("bad query"));
    ResilientClient client(&inner, NoJitter(5));
    auto r = client.Search({"q"});
    EXPECT_TRUE(r.status().IsInvalidArgument());
    EXPECT_EQ(inner.calls(), 1u);
  }
  {
    FailNTimesInterface inner(100, Status::BudgetExhausted("spent"));
    ResilientClient client(&inner, NoJitter(5));
    auto r = client.Search({"q"});
    EXPECT_TRUE(r.status().IsBudgetExhausted());
    EXPECT_EQ(inner.calls(), 1u);
  }
}

TEST(NetResilientClientTest, RetryBudgetCapsLifetimeRetries) {
  FailNTimesInterface inner(100, Status::Unavailable("down"));
  SimulatedClock clock;
  RetryOptions opt = NoJitter(10);
  opt.retry_budget = 3;
  ResilientClient client(&inner, opt, &clock);
  EXPECT_FALSE(client.Search({"q"}).ok());  // 1 attempt + 3 retries
  EXPECT_EQ(inner.calls(), 4u);
  EXPECT_FALSE(client.Search({"q"}).ok());  // budget gone: single attempt
  EXPECT_EQ(inner.calls(), 5u);
  EXPECT_EQ(client.stats().retries, 3u);
}

TEST(NetResilientClientTest, BreakerTripsWaitsAndHalfOpens) {
  FailNTimesInterface inner(3, Status::Unavailable("down"));
  SimulatedClock clock;
  RetryOptions opt = NoJitter(10);
  opt.base_backoff_ms = 10;
  opt.backoff_multiplier = 1.0;
  opt.breaker_threshold = 3;
  opt.breaker_cooldown_ms = 60000;
  ResilientClient client(&inner, opt, &clock);

  // Attempts 1-3 fail -> breaker trips; attempt 4 waits out the cooldown
  // (half-open probe) and succeeds, closing the breaker.
  auto r = client.Search({"q"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(client.stats().breaker_trips, 1u);
  EXPECT_GE(client.stats().breaker_wait_ms, 1u);
  EXPECT_FALSE(client.breaker_open());
  EXPECT_GE(clock.now_ms(), 60000u);
}

hidden::HiddenDatabase SmallDb() {
  table::Table t(table::Schema{{"name"}});
  EXPECT_TRUE(t.Append({"alpha beta"}, 1).ok());
  EXPECT_TRUE(t.Append({"beta gamma"}, 2).ok());
  hidden::HiddenDatabaseOptions opt;
  opt.top_k = 10;
  return hidden::HiddenDatabase(std::move(t), opt);
}

TEST(NetResilientClientTest, FailedAttemptsConsumeNoBudgetCanonicalOrder) {
  // Canonical order: resilient -> budget -> faults -> db. Every attempt
  // passes through the budget layer, but only engine-accepted queries are
  // metered.
  auto db = SmallDb();
  FaultOptions fopt;
  fopt.transient_fault_rate = 0.5;
  fopt.seed = 9;
  FaultInjectingInterface faults(&db, fopt);
  hidden::BudgetedInterface budget(&faults, 100);
  SimulatedClock clock;
  ResilientClient client(&budget, NoJitter(20), &clock);

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client.Search({"beta"}).ok());
  EXPECT_GT(client.stats().retries, 0u);  // faults did happen
  EXPECT_EQ(budget.num_queries_issued(), 20u);
  EXPECT_EQ(budget.remaining(), 80u);
  EXPECT_EQ(db.num_queries_issued(), 20u);
}

TEST(NetResilientClientTest, FailedAttemptsConsumeNoBudgetInvertedOrder) {
  // Inverted order: budget -> resilient -> faults -> db. The budget layer
  // sees only the final outcome of each retried call; failed attempts are
  // invisible to it.
  auto db = SmallDb();
  FaultOptions fopt;
  fopt.transient_fault_rate = 0.5;
  fopt.seed = 9;
  FaultInjectingInterface faults(&db, fopt);
  SimulatedClock clock;
  ResilientClient client(&faults, NoJitter(20), &clock);
  hidden::BudgetedInterface budget(&client, 100);

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(budget.Search({"beta"}).ok());
  EXPECT_GT(client.stats().retries, 0u);
  EXPECT_EQ(budget.num_queries_issued(), 20u);
  EXPECT_EQ(budget.remaining(), 80u);
  EXPECT_EQ(db.num_queries_issued(), 20u);
}

TEST(NetResilientClientTest, BudgetExhaustionPassesThroughQuotaStack) {
  // resilient -> quota -> db: once the day's quota is spent the
  // BudgetExhausted status must escape un-retried so the caller can
  // AdvanceDay() / stop, not burn attempts.
  auto db = SmallDb();
  hidden::DailyQuotaInterface quota(&db, 2);
  SimulatedClock clock;
  ResilientClient client(&quota, NoJitter(5), &clock);
  ASSERT_TRUE(client.Search({"beta"}).ok());
  ASSERT_TRUE(client.Search({"beta"}).ok());
  auto r = client.Search({"beta"});
  EXPECT_TRUE(r.status().IsBudgetExhausted());
  EXPECT_EQ(client.stats().attempts, 3u);  // no retry on the rejection
  EXPECT_EQ(clock.now_ms(), 0u);           // and no backoff wait
}

}  // namespace
}  // namespace smartcrawl::net
