#include "trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace unistore {
namespace bench {
namespace e2e {

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Begin(const char* name, uint64_t trace_id,
                       uint64_t parent_id, sim::SimTime virtual_now) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, trace_id, id, parent_id, HostNs(), 0,
                        virtual_now, 0, 0});
  return id;
}

void Tracer::End(uint64_t span_id, sim::SimTime virtual_now, int64_t count) {
  if (span_id == 0) return;
  Span& span = spans_[span_id - 1];
  span.host_end_ns = HostNs();
  span.virtual_end_us = virtual_now;
  span.count = count;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %" PRIu64 ", \"spans\": [\n", dropped_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"trace_id\": %" PRIu64
                 ", \"span_id\": %" PRIu64 ", \"parent_id\": %" PRIu64
                 ", \"host_start_ns\": %" PRId64 ", \"host_end_ns\": %" PRId64
                 ", \"virtual_start_us\": %" PRId64
                 ", \"virtual_end_us\": %" PRId64 ", \"count\": %" PRId64
                 "}%s\n",
                 s.name, s.trace_id, s.span_id, s.parent_id, s.host_start_ns,
                 s.host_end_ns, s.virtual_start_us, s.virtual_end_us, s.count,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace bench
}  // namespace unistore
