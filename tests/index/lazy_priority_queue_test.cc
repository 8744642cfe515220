#include "index/lazy_priority_queue.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace smartcrawl::index {
namespace {

TEST(LazyPriorityQueueTest, PopsInPriorityOrderWhenClean) {
  LazyPriorityQueue pq([](uint32_t) { return 0.0; });
  pq.Push(0, 1.0);
  pq.Push(1, 5.0);
  pq.Push(2, 3.0);
  uint32_t id;
  double prio;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 1u);
  EXPECT_DOUBLE_EQ(prio, 5.0);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 2u);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 0u);
  EXPECT_FALSE(pq.PopMax(&id, &prio));
}

TEST(LazyPriorityQueueTest, TieBreaksByLowerId) {
  LazyPriorityQueue pq([](uint32_t) { return 0.0; });
  pq.Push(9, 2.0);
  pq.Push(3, 2.0);
  pq.Push(5, 2.0);
  uint32_t id;
  double prio;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 3u);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 5u);
}

TEST(LazyPriorityQueueTest, DirtyTopIsRecomputedBeforePop) {
  std::vector<double> truth = {1.0, 5.0, 3.0};
  LazyPriorityQueue pq([&](uint32_t q) { return truth[q]; });
  pq.Push(0, 1.0);
  pq.Push(1, 5.0);
  pq.Push(2, 3.0);
  // Element 1's true priority decays below element 2's.
  truth[1] = 2.0;
  pq.MarkDirty(1);
  uint32_t id;
  double prio;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 2u);
  EXPECT_DOUBLE_EQ(prio, 3.0);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 1u);
  EXPECT_DOUBLE_EQ(prio, 2.0);
  EXPECT_GE(pq.num_recomputes(), 1u);
}

TEST(LazyPriorityQueueTest, DirtyNonTopElementsAreNotRecomputed) {
  std::vector<double> truth = {10.0, 1.0};
  LazyPriorityQueue pq([&](uint32_t q) { return truth[q]; });
  pq.Push(0, 10.0);
  pq.Push(1, 1.0);
  pq.MarkDirty(1);
  uint32_t id;
  double prio;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(pq.num_recomputes(), 0u);  // element 1 never reached the top
}

TEST(LazyPriorityQueueTest, RePushAfterPopWorks) {
  LazyPriorityQueue pq([](uint32_t) { return 0.0; });
  pq.Push(0, 4.0);
  uint32_t id;
  double prio;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  pq.Push(0, 2.0);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 0u);
  EXPECT_DOUBLE_EQ(prio, 2.0);
}

// Property: under monotonically decaying priorities, the lazy queue pops the
// exact same sequence as eager recomputation over all live elements.
struct DecayParams {
  size_t n;
  uint64_t seed;
  int decay_events;  // dirty-decay operations interleaved with pops
};

// Prints the fields, not the struct's bytes: its padding is uninitialised,
// and the print names the test case.
void PrintTo(const DecayParams& p, std::ostream* os) {
  *os << "n" << p.n << "_seed" << p.seed << "_decays" << p.decay_events;
}

class LazyPqPropertyTest : public ::testing::TestWithParam<DecayParams> {};

TEST_P(LazyPqPropertyTest, MatchesEagerSelection) {
  const auto& p = GetParam();
  smartcrawl::Rng rng(p.seed);

  std::vector<double> truth(p.n);
  for (auto& t : truth) t = static_cast<double>(rng.UniformIndex(1000));

  LazyPriorityQueue pq([&](uint32_t q) { return truth[q]; });
  std::vector<uint8_t> alive(p.n, 1);
  for (uint32_t i = 0; i < p.n; ++i) pq.Push(i, truth[i]);

  size_t pops = 0;
  int decays_left = p.decay_events;
  while (true) {
    // Interleave random decay events.
    while (decays_left > 0 && rng.Bernoulli(0.6)) {
      uint32_t v = static_cast<uint32_t>(rng.UniformIndex(p.n));
      if (alive[v] && truth[v] > 0) {
        truth[v] -= std::min(truth[v],
                             static_cast<double>(1 + rng.UniformIndex(50)));
        pq.MarkDirty(v);
      }
      --decays_left;
    }
    uint32_t id;
    double prio;
    if (!pq.PopMax(&id, &prio)) break;
    ++pops;
    // Eager reference: the max over alive elements (lowest id on ties).
    uint32_t best = 0;
    double best_p = -1.0;
    for (uint32_t i = 0; i < p.n; ++i) {
      if (alive[i] && truth[i] > best_p) {
        best_p = truth[i];
        best = i;
      }
    }
    EXPECT_EQ(id, best);
    EXPECT_DOUBLE_EQ(prio, best_p);
    alive[id] = 0;
  }
  EXPECT_EQ(pops, p.n);
}

INSTANTIATE_TEST_SUITE_P(DecaySweep, LazyPqPropertyTest,
                         ::testing::Values(DecayParams{5, 1, 10},
                                           DecayParams{50, 2, 100},
                                           DecayParams{200, 3, 500},
                                           DecayParams{500, 4, 2000}));

// ---------------------------------------------------------------------------
// A queue seeded from a shared Order must behave exactly like one seeded by
// a Push per entry: same pops, same priorities, same recompute count.

using Pops = std::vector<std::pair<uint32_t, double>>;

/// Pops everything left in both queues, checking they agree step by step.
void ExpectSameDrain(LazyPriorityQueue* cursor, LazyPriorityQueue* pushed) {
  uint32_t a_id = 0;
  uint32_t b_id = 0;
  double a_p = 0.0;
  double b_p = 0.0;
  while (true) {
    const bool a = cursor->PopMax(&a_id, &a_p);
    const bool b = pushed->PopMax(&b_id, &b_p);
    ASSERT_EQ(a, b);
    if (!a) break;
    ASSERT_EQ(a_id, b_id);
    ASSERT_EQ(a_p, b_p);
    ASSERT_EQ(cursor->num_recomputes(), pushed->num_recomputes());
  }
  EXPECT_TRUE(cursor->empty());
  EXPECT_EQ(cursor->size(), 0u);
}

TEST(LazyPriorityQueueTest, OrderSortsByPriorityThenLowerId) {
  auto order = LazyPriorityQueue::MakeOrder(
      {{2.0, 9}, {5.0, 1}, {2.0, 3}, {7.0, 4}, {2.0, 5}});
  std::vector<uint32_t> ids;
  for (const LazyPriorityQueue::Entry& e : *order) ids.push_back(e.id);
  EXPECT_EQ(ids, (std::vector<uint32_t>{4, 1, 3, 5, 9}));
}

TEST(LazyPriorityQueueTest, EmptyOrderBehavesLikeAnEmptyQueue) {
  std::vector<double> truth = {3.0, 1.0, 2.0};
  auto recompute = [&](uint32_t q) { return truth[q]; };
  LazyPriorityQueue cursor(recompute, LazyPriorityQueue::MakeOrder({}));
  LazyPriorityQueue pushed(recompute);
  EXPECT_TRUE(cursor.empty());
  uint32_t id = 0;
  double prio = 0.0;
  EXPECT_FALSE(cursor.PopMax(&id, &prio));
  for (uint32_t q = 0; q < truth.size(); ++q) {
    cursor.Push(q, truth[q]);
    pushed.Push(q, truth[q]);
  }
  truth[0] = 0.5;
  cursor.MarkDirty(0);
  pushed.MarkDirty(0);
  EXPECT_EQ(cursor.size(), 3u);
  ExpectSameDrain(&cursor, &pushed);
  EXPECT_EQ(cursor.num_recomputes(), 1u);
}

TEST(LazyPriorityQueueTest, DirtyEntryBehindTheCursorIsRepairedOnReach) {
  // Element 2 is dirtied while still in the shared order, behind the
  // cursor's head; it is recomputed only once the cursor reaches it, and
  // the repaired entry then competes from the heap.
  std::vector<double> truth = {9.0, 6.0, 4.0, 2.0};
  auto order = LazyPriorityQueue::MakeOrder(
      {{9.0, 0}, {6.0, 1}, {4.0, 2}, {2.0, 3}});
  LazyPriorityQueue pq([&](uint32_t q) { return truth[q]; }, order);
  uint32_t id = 0;
  double prio = 0.0;
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 0u);
  truth[2] = 1.0;
  pq.MarkDirty(2);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(pq.num_recomputes(), 0u);  // 2 not reached yet
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 3u);  // 2 reached, repaired to 1.0, and fell below 3
  EXPECT_EQ(pq.num_recomputes(), 1u);
  ASSERT_TRUE(pq.PopMax(&id, &prio));
  EXPECT_EQ(id, 2u);
  EXPECT_DOUBLE_EQ(prio, 1.0);
  EXPECT_FALSE(pq.PopMax(&id, &prio));
}

TEST(LazyPriorityQueueTest, QueuesSharingOneOrderStayIndependent) {
  std::vector<double> truth = {5.0, 3.0, 1.0};
  auto order =
      LazyPriorityQueue::MakeOrder({{5.0, 0}, {3.0, 1}, {1.0, 2}});
  LazyPriorityQueue a([&](uint32_t q) { return truth[q]; }, order);
  LazyPriorityQueue b([&](uint32_t q) { return truth[q]; }, order);
  uint32_t id = 0;
  double prio = 0.0;
  ASSERT_TRUE(a.PopMax(&id, &prio));
  ASSERT_TRUE(a.PopMax(&id, &prio));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 3u);
  ASSERT_TRUE(b.PopMax(&id, &prio));
  EXPECT_EQ(id, 0u);
}

struct DifferentialParams {
  size_t n;
  uint64_t seed;
  uint32_t distinct_priorities;  // small => many ties
  size_t ops;
};

void PrintTo(const DifferentialParams& p, std::ostream* os) {
  *os << "n" << p.n << "_seed" << p.seed << "_prios"
      << p.distinct_priorities << "_ops" << p.ops;
}

class LazyPqOrderDifferentialTest
    : public ::testing::TestWithParam<DifferentialParams> {};

TEST_P(LazyPqOrderDifferentialTest, CursorSeededEqualsPushSeeded) {
  const DifferentialParams& p = GetParam();
  Rng rng(p.seed);
  std::vector<double> truth(p.n);
  for (double& t : truth) {
    t = static_cast<double>(rng.UniformIndex(p.distinct_priorities));
  }
  auto recompute = [&](uint32_t q) { return truth[q]; };

  std::vector<LazyPriorityQueue::Entry> entries;
  for (uint32_t q = 0; q < p.n; ++q) entries.push_back({truth[q], q});
  LazyPriorityQueue cursor(recompute,
                           LazyPriorityQueue::MakeOrder(entries));
  // The reference heap gets its pushes in a shuffled order: the order of
  // the pushes must not matter either.
  LazyPriorityQueue pushed(recompute);
  std::vector<uint32_t> push_order(p.n);
  for (uint32_t q = 0; q < p.n; ++q) push_order[q] = q;
  for (size_t i = p.n; i > 1; --i) {
    std::swap(push_order[i - 1], push_order[rng.UniformIndex(i)]);
  }
  for (uint32_t q : push_order) pushed.Push(q, truth[q]);

  std::vector<uint8_t> queued(p.n, 1);
  std::vector<uint32_t> popped;
  Pops trace;
  for (size_t op = 0; op < p.ops; ++op) {
    const size_t kind = rng.UniformIndex(10);
    if (kind < 5) {
      // Decay a random element: most of them are still in the order, many
      // behind the cursor's head.
      const auto v = static_cast<uint32_t>(rng.UniformIndex(p.n));
      if (truth[v] > 0.0) {
        truth[v] -= std::min(truth[v],
                             static_cast<double>(1 + rng.UniformIndex(3)));
      }
      cursor.MarkDirty(v);
      pushed.MarkDirty(v);
    } else if (kind < 6 && !popped.empty()) {
      // Re-push a popped element at its current priority (how a session
      // returns a query refused for quota, or keeps a Bound query).
      const size_t at = rng.UniformIndex(popped.size());
      const uint32_t v = popped[at];
      popped[at] = popped.back();
      popped.pop_back();
      queued[v] = 1;
      cursor.Push(v, truth[v]);
      pushed.Push(v, truth[v]);
    } else {
      uint32_t a_id = 0;
      uint32_t b_id = 0;
      double a_p = 0.0;
      double b_p = 0.0;
      const bool a = cursor.PopMax(&a_id, &a_p);
      const bool b = pushed.PopMax(&b_id, &b_p);
      ASSERT_EQ(a, b) << "op " << op;
      if (!a) continue;
      ASSERT_EQ(a_id, b_id) << "op " << op;
      ASSERT_EQ(a_p, b_p) << "op " << op;
      ASSERT_TRUE(queued[a_id]);
      queued[a_id] = 0;
      popped.push_back(a_id);
      trace.emplace_back(a_id, a_p);
    }
    ASSERT_EQ(cursor.num_recomputes(), pushed.num_recomputes())
        << "op " << op;
    ASSERT_EQ(cursor.size(), pushed.size()) << "op " << op;
  }
  ExpectSameDrain(&cursor, &pushed);
  EXPECT_FALSE(trace.empty());
  EXPECT_GT(cursor.num_recomputes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LazyPqOrderDifferentialTest,
    ::testing::Values(DifferentialParams{1, 11, 1, 50},
                      DifferentialParams{8, 12, 2, 200},
                      DifferentialParams{64, 13, 3, 2000},
                      DifferentialParams{300, 14, 1000, 5000},
                      DifferentialParams{1000, 15, 4, 20000}));

}  // namespace
}  // namespace smartcrawl::index
