// Transport: message delivery between peers over the simulated network.
//
// One class serves both engines. Each scheduler shard, plus one slot for
// harness context, owns a cache-line-aligned TrafficStats block, so
// concurrent shard execution never contends on counters; stats() merges
// the slots on read, exactly, because every counter is a sum or a maximum.
// On the single-threaded sim::Simulation every event runs in slot 0.
//
// Every peer draws loss and latency from its own RNG stream derived from
// (seed, peer_id), so those draws depend only on the peer's own send
// history — the property that makes sharded execution deterministic
// (DESIGN.md §2-3).
#ifndef UNISTORE_NET_TRANSPORT_H_
#define UNISTORE_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "net/churn_plane.h"
#include "net/fault_plane.h"
#include "net/message.h"
#include "sim/latency.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {

/// Counters describing the traffic that crossed the transport. Drops are
/// split by cause — random loss (the loss model), scripted partition drops
/// (the fault plane), and dead-peer drops — so chaos runs can attribute
/// every vanished message.
struct TrafficStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_lost_random = 0;     ///< Random loss (loss model).
  uint64_t messages_lost_partition = 0;  ///< Fault-plane partition drop.
  uint64_t messages_lost_churn = 0;  ///< Churn plane: src or dst was down.
  uint64_t messages_to_dead = 0;    ///< Destination was down at delivery.
  uint64_t messages_invalid = 0;    ///< Dropped: src/dst not registered.
  uint64_t messages_duplicated = 0; ///< Extra copies the fault plane injected.
  uint64_t messages_corrupted = 0;  ///< Payloads the fault plane flipped.
  uint64_t bytes_sent = 0;
  /// RetryPolicy spends, keyed by policy name (common/retry_policy.h);
  /// counted by protocol code through Transport::CountRetry.
  std::map<std::string, uint64_t> retries_by_policy;
  std::map<MessageType, uint64_t> per_type;
  std::map<MessageType, uint64_t> per_type_bytes;  ///< Wire bytes per type.
  /// Largest single message (wire bytes) seen per type over the whole
  /// history — `Since` copies it unchanged rather than differencing, since
  /// a maximum cannot be attributed to an interval. Used to assert chunk
  /// budgets (no repair reply may exceed the configured chunk size).
  std::map<MessageType, uint64_t> per_type_max_bytes;

  /// All drops regardless of cause (convenience for loss-rate assertions).
  uint64_t total_dropped() const {
    return messages_lost_random + messages_lost_partition +
           messages_lost_churn + messages_to_dead;
  }

  /// Difference `*this - other` (for measuring a single operation).
  TrafficStats Since(const TrafficStats& other) const;

  /// Adds `other` into this (per-shard slots merged on read).
  void Merge(const TrafficStats& other);

  std::string ToString() const;
};

/// \brief Delivers messages between registered peers with sampled latency,
/// optional random loss, and per-peer liveness (for churn experiments).
///
/// Failure semantics mirror UDP-like best effort: a message to a dead or
/// non-existent peer vanishes; it is the protocols' job (timeouts, retries,
/// replication) to cope — exactly the environment the paper targets
/// ("unreliable and highly dynamic", §3).
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  Transport(sim::Scheduler* scheduler,
            std::unique_ptr<sim::LatencyModel> latency, uint64_t seed);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers a peer and its message handler. Returns the assigned id.
  /// Harness-time only (never from inside an event).
  PeerId AddPeer(Handler handler);

  /// Replaces the handler of an existing peer (used when a peer object is
  /// rebuilt on rejoin).
  void SetHandler(PeerId peer, Handler handler);

  /// Sends `msg`. An unregistered src or dst counts as an invalid send and
  /// the message is dropped. Otherwise the message is copied into the
  /// event queue; delivery happens at Now() + latency unless lost.
  void Send(Message msg);

  /// Marks a peer up/down. Messages in flight toward a peer that is down
  /// at delivery time are dropped. Harness-time only under sharding; for
  /// liveness transitions inside a run use a ChurnSchedule, whose windows
  /// are evaluated as a pure function of virtual time.
  void SetAlive(PeerId peer, bool alive);

  /// True iff the peer is up right now: its SetAlive bit is set and no
  /// churn-plane window covers Now(). Pure read — safe from any context.
  bool IsAlive(PeerId peer) const;

  /// Fraction of messages dropped uniformly at random, in [0, 1).
  void set_loss_probability(double p) { loss_probability_ = p; }
  double loss_probability() const { return loss_probability_; }

  /// Installs the scripted fault plane (net/fault_plane.h). The schedule
  /// is immutable once installed and read by every shard at send time —
  /// harness-time only. Replaces any previous schedule.
  void SetFaultSchedule(FaultSchedule schedule);

  /// The installed fault plane, or nullptr when none is scripted.
  const FaultPlane* fault_plane() const { return fault_plane_.get(); }

  /// Installs the scripted churn plane (net/churn_plane.h) with every
  /// join spec's peer id already resolved (Overlay::InstallChurn does
  /// this). Immutable once installed and read by every shard at send and
  /// delivery time — harness-time only. Replaces any previous schedule.
  void SetChurnSchedule(ChurnSchedule schedule);

  /// The installed churn plane, or nullptr when none is scripted.
  const ChurnPlane* churn_plane() const { return churn_plane_.get(); }

  /// Bumps the per-policy retry counter (TrafficStats.retries_by_policy).
  /// `policy` must be a stable name (common/retry_policy.h policies).
  void CountRetry(std::string_view policy);

  size_t peer_count() const { return handlers_.size(); }

  /// Traffic counters; merged across shard slots on read.
  TrafficStats stats() const;

  sim::Scheduler* scheduler() { return scheduler_; }

  /// Starts recording one delivery log per destination peer (tests). The
  /// concatenation is a canonical per-peer trace: identical across engines
  /// and shard counts for the same seed.
  void EnableDeliveryTrace();
  std::string DeliveryTrace() const;

 private:
  struct DeliveryRecord {
    sim::SimTime when;
    PeerId src;
    MessageType type;
    uint64_t request_id;
    uint32_t hops;
    uint64_t payload_hash;
  };

  /// Cache-line sized so shards never false-share counters.
  struct alignas(64) Slot {
    TrafficStats stats;
  };

  /// The TrafficStats block the current execution context may mutate.
  /// CurrentShard() returns shard_count() from harness context — the
  /// extra slot — so no two execution contexts share a block.
  TrafficStats& CurrentStats() {
    return slots_[scheduler_->CurrentShard()].stats;
  }

  void Deliver(const Message& m);

  sim::Scheduler* scheduler_;
  std::unique_ptr<sim::LatencyModel> latency_;
  uint64_t seed_;
  double loss_probability_ = 0.0;
  std::unique_ptr<FaultPlane> fault_plane_;  ///< Null when no faults scripted.
  std::unique_ptr<ChurnPlane> churn_plane_;  ///< Null when no churn scripted.

  std::vector<Slot> slots_;  ///< shard_count() + 1 (last = harness).
  std::vector<Handler> handlers_;
  std::vector<bool> alive_;
  std::vector<Rng> peer_rng_;  ///< Stream i: Rng(StreamSeed(seed, i)).
  bool trace_enabled_ = false;
  std::vector<std::vector<DeliveryRecord>> trace_;  ///< By dst peer.
};

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_TRANSPORT_H_
