// In-memory span recorder for the benchmark's traced run.
//
// Spans are placed by the benchmark around its calls into each module's
// public functions (no span lives inside src/). Each span records its name,
// start, end, parent span and the series id it belongs to; the tracer keeps
// them in memory and writes them out when the run ends. A span's self time
// is its duration minus the time its direct children cover (children nest
// strictly on one thread, so the sum of their durations is that cover).
//
// Recording is off unless enabled, and can be paused per thread: the traced
// run alternates traced and untraced iterations on each client thread so
// the tracing overhead is measured within one run.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  uint64_t series = 0;  // 0: set-up and replay phases
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // covered by direct children
};

class Tracer {
 public:
  struct Aggregate {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
    double MeanMs() const { return count ? 1e3 * total_s / count : 0; }
  };

  void Enable(bool on) { enabled_ = on; }
  /// Pauses or resumes recording on the calling thread.
  static void SetThreadActive(bool on) { ThreadState().active = on; }
  bool recording() const { return enabled_ && ThreadState().active; }

  /// Opens a span on the calling thread; -1 when not recording.
  int64_t Begin(const std::string& name, uint64_t series) {
    if (!recording()) return -1;
    PerThread& ts = ThreadState();
    std::lock_guard<std::mutex> lock(mu_);
    if (ts.id == 0) ts.id = ++threads_;
    Span s;
    s.name = name;
    s.parent = ts.stack.empty() ? -1 : ts.stack.back();
    s.series = series;
    s.thread = ts.id;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    ts.stack.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return ts.stack.back();
  }

  void End(int64_t id) {
    if (id < 0) return;
    PerThread& ts = ThreadState();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[id];
    s.end_ns = NowNs();
    if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
    if (!ts.stack.empty() && ts.stack.back() == id) ts.stack.pop_back();
  }

  /// Per-name totals; `series_only` keeps the spans of timed series
  /// (series id > 0) and drops set-up and replay spans.
  std::map<std::string, Aggregate> Aggregates(bool series_only = false) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Aggregate> out;
    for (const Span& s : spans_) {
      if (s.end_ns == 0 || (series_only && s.series == 0)) continue;
      Aggregate& a = out[s.name];
      ++a.count;
      a.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      a.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - s.child_ns);
    }
    return out;
  }

  size_t span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON array (times in ns from tracer start).
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"series\":%llu,"
                   "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.series), s.thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.end_ns - s.start_ns - s.child_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct PerThread {
    bool active = true;
    uint32_t id = 0;
    std::vector<int64_t> stack;
  };
  static PerThread& ThreadState() {
    thread_local PerThread state;
    return state;
  }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_ = false;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  uint32_t threads_ = 0;
};

/// The run's tracer.
inline Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

/// RAII span around one call into a module.
class TraceSpan {
 public:
  TraceSpan(const std::string& name, uint64_t series = 0)
      : id_(GlobalTracer().Begin(name, series)) {}
  ~TraceSpan() { GlobalTracer().End(id_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
