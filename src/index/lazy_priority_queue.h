#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

/// \file lazy_priority_queue.h
/// The on-demand updating mechanism of paper Sec. 6.3 / Algorithm 4.
///
/// A max-priority queue over query indices whose priorities decay as local
/// records are covered. Instead of repairing the heap on every removal, a
/// *delta-update index* U accumulates pending staleness per element; when an
/// element reaches the top, its priority is recomputed (via a caller-supplied
/// function) only if U marks it dirty, and it is re-pushed. The element
/// finally popped is guaranteed to carry the true current maximum priority —
/// identical results to eager recomputation, at a fraction of the cost
/// (benchmarked in bench_microbench).
///
/// Correctness argument (same as the paper's): priorities only ever
/// *decrease*; a clean top element's stored priority is exact and is >= every
/// stored priority below it, each of which upper-bounds its own true
/// priority.
///
/// Callers mark every element a removal dirtied (MarkDirty) and never
/// recompute eagerly; the recompute count is the repair work the crawl
/// actually paid for (CrawlStats::pq_recomputes).
///
/// Seeding from a shared order. A queue may start from an Order: its
/// initial entries sorted once, from first to last pop, and shared
/// read-only by any number of queues (every crawl session of one plan and
/// top-k starts from the same priorities). The queue then holds a cursor
/// into the order plus a small heap for the entries it re-pushes (repairs,
/// Push after a pop). The elements not yet popped are the order's entries
/// past the cursor plus the heap's entries: the same multiset a single
/// heap seeded by one Push per entry would hold. PopMax takes the greater
/// of the cursor head and the heap top, which is that multiset's maximum,
/// and then applies the same dirty/recompute rule. Ids are unique among
/// the queued elements and no priority is NaN, so the order is strict and
/// the maximum is one element: pop sequences and num_recomputes equal the
/// single heap's exactly, while seeding a queue takes no heap push and no
/// sort.

namespace smartcrawl::index {

class LazyPriorityQueue {
 public:
  /// Recomputes the true current priority of element `id`.
  using RecomputeFn = std::function<double(uint32_t id)>;

  /// One queued element and its stored priority.
  struct Entry {
    double priority;
    uint32_t id;
    /// The queue's strict order: `a < b` when `b` pops first (higher
    /// priority, then lower id). std::priority_queue is a max-heap on it.
    bool operator<(const Entry& other) const {
      if (priority != other.priority) return priority < other.priority;
      return id > other.id;  // deterministic tie-break: lower id wins
    }
  };

  /// Initial entries in pop order (see the file comment). Immutable, so
  /// queues share it.
  using Order = std::shared_ptr<const std::vector<Entry>>;

  /// Sorts `entries` (unique ids, no NaN priority) into an Order.
  static Order MakeOrder(std::vector<Entry> entries) {
    // The cursor argument needs a strict order, and a NaN compares false
    // both ways. Checked in debug builds (the sanitizer CI jobs run Debug).
    assert(std::none_of(entries.begin(), entries.end(),
                        [](const Entry& e) { return std::isnan(e.priority); }));
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return b < a; });
    return std::make_shared<const std::vector<Entry>>(std::move(entries));
  }

  /// A queue holding `order`'s entries (none when null); more may be
  /// pushed.
  explicit LazyPriorityQueue(RecomputeFn recompute, Order order = nullptr)
      : recompute_(std::move(recompute)), order_(std::move(order)) {
    if (order_ == nullptr) return;
    rest_ = *order_;
    uint32_t end = 0;
    for (const Entry& e : rest_) end = std::max(end, e.id + 1);
    dirty_.assign(end, 0);
  }

  /// Inserts `id` with its current priority. Ids must be unique across the
  /// queue's lifetime unless re-pushed after a pop.
  void Push(uint32_t id, double priority) {
    heap_.push(Entry{priority, id});
    if (id >= dirty_.size()) dirty_.resize(id + 1, 0);
  }

  /// Marks `id` stale: its stored priority may exceed its true priority.
  void MarkDirty(uint32_t id) {
    if (id >= dirty_.size()) dirty_.resize(id + 1, 0);
    dirty_[id] = 1;
  }

  bool empty() const { return rest_.empty() && heap_.empty(); }
  size_t size() const { return rest_.size() + heap_.size(); }

  /// Pops the element with the (true) maximum priority. Returns false when
  /// empty. On success, `*id`/`*priority` receive the winner.
  bool PopMax(uint32_t* id, double* priority);

  /// Number of recompute calls performed so far (for the ablation bench).
  size_t num_recomputes() const { return num_recomputes_; }

 private:
  RecomputeFn recompute_;
  Order order_;                  // keeps rest_'s entries alive
  std::span<const Entry> rest_;  // the order's entries not yet popped
  std::priority_queue<Entry> heap_;
  std::vector<uint8_t> dirty_;
  size_t num_recomputes_ = 0;
};

inline bool LazyPriorityQueue::PopMax(uint32_t* id, double* priority) {
  while (true) {
    Entry top;
    if (!rest_.empty() && (heap_.empty() || heap_.top() < rest_.front())) {
      top = rest_.front();
      rest_ = rest_.subspan(1);
    } else if (!heap_.empty()) {
      top = heap_.top();
      heap_.pop();
    } else {
      return false;
    }
    if (dirty_[top.id]) {
      dirty_[top.id] = 0;
      ++num_recomputes_;
      heap_.push(Entry{recompute_(top.id), top.id});
      continue;
    }
    *id = top.id;
    *priority = top.priority;
    return true;
  }
}

}  // namespace smartcrawl::index
