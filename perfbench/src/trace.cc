#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, int64_t request) {
  const int64_t now = NowNs();
  agora::MutexLock lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  agora::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::NewRequest() {
  agora::MutexLock lock(mu_);
  return next_request_++;
}

std::vector<Span> Tracer::Spans() const {
  agora::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
