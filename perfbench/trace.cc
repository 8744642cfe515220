#include "trace.h"

#include <atomic>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

thread_local uint32_t t_current_lane = 0;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

uint32_t CurrentLane() { return t_current_lane; }
void SetCurrentLane(uint32_t lane) { t_current_lane = lane; }

Tracer::Tracer(size_t num_lanes) : epoch_(Clock::now()), lanes_(num_lanes) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

uint64_t Tracer::Begin(uint32_t lane, const char* name, uint64_t root_parent) {
  Lane& l = lanes_[lane];
  Span s;
  s.name = name;
  s.lane = lane;
  s.thread = ThreadNumber();
  s.id = (static_cast<uint64_t>(lane) << 32) | (l.spans.size() + 1);
  s.parent = l.open.empty() ? root_parent : l.spans[l.open.back()].id;
  s.start_ns = NowNs();
  l.open.push_back(l.spans.size());
  l.spans.push_back(s);
  return s.id;
}

void Tracer::End(uint32_t lane) {
  Lane& l = lanes_[lane];
  l.spans[l.open.back()].end_ns = NowNs();
  l.open.pop_back();
}

uint64_t Tracer::Current(uint32_t lane) const {
  const Lane& l = lanes_[lane];
  return l.open.empty() ? 0 : l.spans[l.open.back()].id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t total = 0;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans) {
      if (s.end_ns >= s.start_ns && name == s.name) {
        total += s.end_ns - s.start_ns;
      }
    }
  }
  return static_cast<double>(total) * 1e-9;
}

size_t Tracer::Count(const std::string& name) const {
  size_t n = 0;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans) n += name == s.name ? 1 : 0;
  }
  return n;
}

size_t Tracer::NumSpans() const {
  size_t n = 0;
  for (const Lane& l : lanes_) n += l.spans.size();
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& context_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[",
               context_json.c_str());
  bool first = true;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans) {
      // Span names are benchmark-side literals: no JSON escaping needed.
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"session\":%u,\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", s.name,
                   static_cast<int>(std::strcspn(s.name, ".")), s.name,
                   s.thread, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.lane,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
