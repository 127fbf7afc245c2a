// Outside-in span recorder of bench_e2e's traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// program's layers (vql::Parse, UniStore::PlanOnly/QueryPlan, the ladder's
// per-layer entries, Scheduler::RunFor slices). Each carries host and
// virtual start/end times and one count. They live in a bounded in-memory
// buffer (spans past the capacity are counted, not kept) and are written
// as JSON when the run ends.
#ifndef UNISTORE_BENCH_E2E_TRACE_H_
#define UNISTORE_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace unistore {
namespace bench {
namespace e2e {

/// Host monotonic clock in nanoseconds.
int64_t HostNs();

struct Span {
  const char* name;  ///< Static string.
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;  ///< 0 for a root.
  int64_t host_start_ns;
  int64_t host_end_ns;
  sim::SimTime virtual_start_us;
  sim::SimTime virtual_end_us;
  int64_t count;  ///< Rows, events or entries, depending on the span.
};

class Tracer {
 public:
  explicit Tracer(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a span and returns its id, or 0 once the buffer is full (the
  /// span is counted as dropped; End(0, ...) is a no-op).
  uint64_t Begin(const char* name, uint64_t trace_id, uint64_t parent_id,
                 sim::SimTime virtual_now);

  void End(uint64_t span_id, sim::SimTime virtual_now, int64_t count = 0);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  bool WriteJson(const std::string& path) const;

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace e2e
}  // namespace bench
}  // namespace unistore

#endif  // UNISTORE_BENCH_E2E_TRACE_H_
