// Scheduler: the event-engine interface behind the discrete-event
// simulation.
//
// Two implementations exist (DESIGN.md §2):
//   - sim::Simulation — the classic single-threaded event loop (default).
//   - sim::ShardedScheduler — K shards with conservative barrier windows,
//     for multi-thread peer execution.
//
// Determinism contract: every event carries a canonical key
// (when, domain, seq) where `domain` identifies the *originating* peer
// (the src of a message delivery, the owner of a timer, or kHarnessDomain
// for events scheduled by harness code) and `seq` is a per-domain counter.
// Both engines process the events of any given peer in canonical key
// order, so for a fixed seed the per-peer event histories — and therefore
// query results, delivery traces, and merged traffic statistics at
// quiescent points — are identical across engines and shard counts.
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

/// \brief Virtual clock + event queue(s) behind the simulation.
///
/// Events with equal timestamps fire in (domain, seq) order: the canonical
/// tie-break that makes sharded and single-threaded execution agree.
/// Within one domain this degenerates to FIFO, which keeps harness-level
/// traces stable.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current virtual time. Inside an event handler this is the handler's
  /// own timestamp (shard-local under ShardedScheduler); from harness
  /// context it is the global clock.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` at absolute time `when` (>= Now()) with a canonical
  /// identity: `domain` is the originating peer (or kHarnessDomain) and
  /// `owner` is the peer whose state `fn` touches — the sharded engine
  /// executes the event on the owner's shard. The per-domain sequence
  /// number is assigned internally.
  virtual void ScheduleEvent(SimTime when, uint32_t domain, uint32_t owner,
                             std::function<void()> fn) = 0;

  /// Schedules `fn` to run at Now() + delay (delay >= 0) from harness
  /// context. Under ShardedScheduler the event runs on shard 0; use
  /// ScheduleEvent/ScheduleAfter with an owner for peer-state events.
  void Schedule(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute virtual time (>= Now()) from harness
  /// context.
  void ScheduleAt(SimTime when, std::function<void()> fn);

  /// Schedules `fn` at Now() + delay with an explicit origin/owner — the
  /// form protocol code uses for its own timers (domain == owner == self).
  void ScheduleAfter(SimTime delay, uint32_t domain, uint32_t owner,
                     std::function<void()> fn);

  /// Runs events until no queue holds one. Returns events processed.
  virtual size_t RunUntilIdle() = 0;

  /// Runs events with time <= Now() + duration; advances the clock to
  /// exactly Now() + duration even if the queues empty earlier.
  virtual size_t RunFor(SimTime duration) = 0;

  /// Runs until `pred()` is true or the queues are empty. The predicate is
  /// evaluated from harness context (under ShardedScheduler: at barrier
  /// points, so up to one lookahead window of events may run after the
  /// satisfying event). Returns true iff the predicate was satisfied.
  virtual bool RunUntil(const std::function<bool()>& pred) = 0;

  /// Number of events currently queued (all shards).
  virtual size_t pending_events() const = 0;

  /// Total events processed since construction (all shards).
  virtual size_t processed_events() const = 0;

  /// Number of shards (1 for the single-threaded engine).
  virtual size_t shard_count() const { return 1; }

  /// Index of the shard executing the current event; `shard_count()` when
  /// called from harness context. net::Transport keys its per-shard
  /// statistics slots off this.
  virtual uint32_t CurrentShard() const { return 0; }

  /// True while the calling thread is executing a shard's events — the
  /// context in which cross-shard shared state (liveness flags, handlers)
  /// must not be mutated. Always false for the single-threaded engine,
  /// where such mutation is safe from any context.
  virtual bool InShardContext() const { return false; }

  /// Declares that events for `domain` may be scheduled. Called by the
  /// transport when a peer registers; engines size per-domain sequence
  /// counters eagerly so no allocation happens on the hot path.
  virtual void RegisterDomain(uint32_t domain) { (void)domain; }
};

namespace internal {

/// One queued event with its canonical key. Shared by both engines — the
/// comparator below IS the cross-engine determinism contract, so it must
/// have exactly one definition.
struct Event {
  SimTime when;
  uint32_t domain;
  uint64_t seq;
  std::function<void()> fn;
};

/// Min-first ordering on (when, domain, seq) for std::priority_queue.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.when != b.when) return a.when > b.when;
    if (a.domain != b.domain) return a.domain > b.domain;
    return a.seq > b.seq;
  }
};

/// The per-domain monotonic counters behind `Event::seq`.
class DomainSequencer {
 public:
  void Register(uint32_t domain) {
    if (domain == kHarnessDomain) return;
    if (domain >= seq_.size()) seq_.resize(domain + 1, 0);
  }

  bool registered(uint32_t domain) const {
    return domain == kHarnessDomain || domain < seq_.size();
  }

  /// Requires registered(domain).
  uint64_t Next(uint32_t domain) {
    return domain == kHarnessDomain ? harness_seq_++ : seq_[domain]++;
  }

 private:
  std::vector<uint64_t> seq_;
  uint64_t harness_seq_ = 0;
};

}  // namespace internal

}  // namespace sim
}  // namespace unistore

#endif  // UNISTORE_SIM_SCHEDULER_H_
