#pragma once

#include <cstdint>
#include <functional>
#include <queue>
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

namespace smartcrawl::index {

class LazyPriorityQueue {
 public:
  /// Recomputes the true current priority of element `id`.
  using RecomputeFn = std::function<double(uint32_t id)>;

  explicit LazyPriorityQueue(RecomputeFn recompute)
      : recompute_(std::move(recompute)) {}

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

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Pops the element with the (true) maximum priority. Returns false when
  /// empty. On success, `*id`/`*priority` receive the winner.
  bool PopMax(uint32_t* id, double* priority);

  /// Number of recompute calls performed so far (for the ablation bench).
  size_t num_recomputes() const { return num_recomputes_; }

 private:
  struct Entry {
    double priority;
    uint32_t id;
    bool operator<(const Entry& other) const {
      // std::priority_queue is a max-heap on operator<.
      if (priority != other.priority) return priority < other.priority;
      return id > other.id;  // deterministic tie-break: lower id wins
    }
  };

  RecomputeFn recompute_;
  std::priority_queue<Entry> heap_;
  std::vector<uint8_t> dirty_;
  size_t num_recomputes_ = 0;
};

inline bool LazyPriorityQueue::PopMax(uint32_t* id, double* priority) {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    heap_.pop();
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
  return false;
}

}  // namespace smartcrawl::index
