#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory span recorder for the end-to-end benchmark's traced runs.
///
/// Spans are recorded only from the benchmark's own code, around the calls
/// it makes into the library's public functions. Each span carries a
/// name, start, end, its parent span and a lane. A lane is one session
/// (lane 1 + session index) or the driver (lane 0); every span of one
/// session lands in that session's lane, so lane == session id. A lane is
/// written by one thread at a time: the benchmark hands sessions between
/// the issuing thread and the workers only across a fork-join barrier, so
/// lanes need no locks.
///
/// Spans stay in memory and are written out once, at the end, as Chrome
/// trace-event JSON ("X" events), which Perfetto and chrome://tracing load.

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // static string literal
  int64_t start_ns = 0;   // relative to the tracer's epoch
  int64_t end_ns = 0;
  uint64_t id = 0;        // (lane << 32) | index within the lane
  uint64_t parent = 0;    // 0 = root
  uint32_t lane = 0;
  uint32_t thread = 0;    // small per-process thread number
};

class Tracer {
 public:
  /// `num_lanes` = sessions + 1 (lane 0 is the driver).
  explicit Tracer(size_t num_lanes);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on `lane`; its parent is the innermost open span of the
  /// lane, or `root_parent` when none is open. Returns the span's id.
  uint64_t Begin(uint32_t lane, const char* name, uint64_t root_parent = 0);
  /// Closes the innermost open span of `lane`.
  void End(uint32_t lane);

  /// Innermost open span of `lane` (0 when none).
  uint64_t Current(uint32_t lane) const;

  /// Sum of durations (seconds) and count of every closed span `name`.
  double TotalSeconds(const std::string& name) const;
  size_t Count(const std::string& name) const;
  size_t NumSpans() const;

  /// Writes every closed span as Chrome trace-event JSON. `context_json`
  /// (a JSON object) is stored under "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& context_json) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices into spans
  };
  int64_t NowNs() const;

  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

/// RAII span; a no-op when `tracer` is null, so untraced code paths pay
/// one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t lane, const char* name,
             uint64_t root_parent = 0)
      : tracer_(tracer), lane_(lane) {
    if (tracer_ != nullptr) tracer_->Begin(lane_, name, root_parent);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(lane_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t lane_;
};

/// The lane the calling thread is currently working for. The benchmark
/// sets it before calling into a session, so decorators below the session
/// (the timed origin) attribute their spans to the right session.
uint32_t CurrentLane();
void SetCurrentLane(uint32_t lane);

}  // namespace perfbench
