#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run. Spans are
// recorded from the benchmark's own code around its calls into each
// layer's public functions; nothing inside the engine is instrumented.
// A span has a name, start and end (ns on the steady clock, relative to
// the recorder's creation), the span that caused it, and the request id
// shared by every span of one request. Spans stay in memory until
// WriteJsonLines at exit.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int64_t parent = -1;  // -1 = root span
  int64_t request = 0;

  double micros() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span; returns its id (its index in Spans()). Thread-safe.
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  /// Closes span `id`. Thread-safe.
  void End(int64_t id);

  /// A fresh request id. Thread-safe.
  int64_t NewRequest();

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// One JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_;
  mutable agora::Mutex mu_;
  std::vector<Span> spans_ AGORA_GUARDED_BY(mu_);
  int64_t next_request_ AGORA_GUARDED_BY(mu_) = 1;
};

/// Span over a scope; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             int64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (tracer_ != nullptr && !ended_) tracer_->End(id_);
    ended_ = true;
  }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
