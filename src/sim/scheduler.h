// Scheduler: the discrete-event simulation core.
//
// UniStore's network substrate (the substitution for the paper's PlanetLab
// testbed, see DESIGN.md §7) is a discrete-event simulator: a virtual clock
// plus one ordered queue of callbacks.
//
// Determinism contract (DESIGN.md §2): every event carries a canonical key
// (when, domain, seq) where `domain` identifies the *originating* peer
// (the src of a message delivery, the owner of a timer, or kHarnessDomain
// for events scheduled by harness code) and `seq` is a per-domain counter.
// Events fire in key order, so for a fixed seed and the same sequence of
// API calls every run — query results, delivery traces, traffic
// statistics — is byte-identical. A cancelled event leaves the queue at
// once: it never runs, never moves the clock and is never counted.
#ifndef UNISTORE_SIM_SCHEDULER_H_
#define UNISTORE_SIM_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace unistore {
namespace sim {

/// Virtual time in microseconds since simulation start.
using SimTime = int64_t;

constexpr SimTime kMicrosPerMilli = 1000;
constexpr SimTime kMicrosPerSecond = 1000 * 1000;

/// Domain of events scheduled by harness code (tests, benchmarks, the
/// synchronous wrappers) rather than by a peer. Sorts after all peer
/// domains at equal timestamps.
constexpr uint32_t kHarnessDomain = 0xFFFFFFFFu;

/// Names one scheduled event, for Scheduler::Cancel. kNoEvent names none.
using EventId = uint64_t;
constexpr EventId kNoEvent = 0;

/// \brief Virtual clock + one event queue.
///
/// Events with equal timestamps fire in (domain, seq) order; within one
/// domain that is FIFO, which keeps protocol traces stable.
class Scheduler {
 public:
  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time: inside an event handler, the handler's own
  /// timestamp.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= Now()) in `domain`'s
  /// sequence: the originating peer, or kHarnessDomain.
  EventId ScheduleEvent(SimTime when, uint32_t domain,
                        std::function<void()> fn);

  /// The same with an `owner` argument that does nothing. Only the
  /// benchmark harness (bench/e2e) passes it; it goes with the next change
  /// to the benchmark.
  void ScheduleEvent(SimTime when, uint32_t domain, uint32_t /*owner*/,
                     std::function<void()> fn) {
    ScheduleEvent(when, domain, std::move(fn));
  }

  /// Schedules `fn` to run at Now() + delay (delay >= 0) from harness
  /// context.
  EventId Schedule(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute virtual time (>= Now()) from harness
  /// context.
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  /// Schedules `fn` at Now() + delay in `domain`'s sequence — the form
  /// protocol code uses for its own timers (domain == self).
  EventId ScheduleAfter(SimTime delay, uint32_t domain,
                        std::function<void()> fn);

  /// Drops the event `id` from the queue: it never runs, does not move
  /// Now() and is not counted in processed_events(). An id whose event
  /// already ran or was cancelled, and kNoEvent, are no-ops.
  void Cancel(EventId id);

  /// Runs events until the queue is empty. Returns events processed.
  /// Now() is then the time of the last event that ran (unchanged when
  /// none did), so it depends only on the events still live — never on
  /// timers of operations that already ended.
  size_t RunUntilIdle();

  /// Runs events with time <= Now() + duration; advances the clock to
  /// exactly Now() + duration even if the queue empties earlier.
  size_t RunFor(SimTime duration);

  /// Runs until `pred()` is true (checked after every event) or the queue
  /// is empty. Returns true iff the predicate was satisfied.
  bool RunUntil(const std::function<bool()>& pred);

  /// Number of events currently queued (cancelled ones are gone).
  size_t pending_events() const { return heap_.size(); }

  /// Total events processed since construction.
  size_t processed_events() const { return processed_; }

 private:
  // One queued event: its canonical key and the slot of its callback.
  struct Entry {
    SimTime when;
    uint32_t domain;
    uint32_t slot;
    uint64_t seq;
  };

  // A queued callback and the index of its entry in `heap_`. `gen` counts
  // the slot's tenants, so the id of a tenant that already ran or was
  // cancelled no longer matches.
  struct Slot {
    std::function<void()> fn;
    uint32_t pos = 0;
    uint32_t gen = 1;
  };

  /// Canonical order: (when, domain, seq), earliest first.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.domain != b.domain) return a.domain < b.domain;
    return a.seq < b.seq;
  }

  /// The next `seq` of `domain`'s events.
  uint64_t NextSeq(uint32_t domain);

  // Binary min-heap over `heap_` that keeps each slot's `pos` current.
  void Place(size_t pos, const Entry& e);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Removes the entry at `pos`, frees its slot and returns its callback.
  std::function<void()> Take(size_t pos);

  bool PopAndRun();

  SimTime now_ = 0;
  size_t processed_ = 0;
  std::vector<uint64_t> seq_;  ///< Per peer domain, grown on first use.
  uint64_t harness_seq_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace sim
}  // namespace unistore

#endif  // UNISTORE_SIM_SCHEDULER_H_
