// Overlay: harness that owns the simulation, transport and peers.
#ifndef UNISTORE_PGRID_OVERLAY_H_
#define UNISTORE_PGRID_OVERLAY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "net/transport.h"
#include "pgrid/peer.h"
#include "sim/latency.h"
#include "sim/scheduler.h"

namespace unistore {
namespace pgrid {

/// Construction and runtime knobs of a simulated overlay network.
struct OverlayOptions {
  /// Peers per leaf path when building a balanced trie.
  size_t replication = 1;
  /// Options applied to every peer.
  PeerOptions peer;
  /// Master seed; every peer and the transport fork from it.
  uint64_t seed = 1234;
  /// Uniform message loss probability.
  double loss_probability = 0.0;
  /// Scripted link faults (partitions, jitter, duplication, corruption)
  /// applied by the transport; empty = fault-free (net/fault_plane.h).
  net::FaultSchedule fault_schedule;
};

/// Starts one asynchronous operation by handing `start` its callback and
/// runs `scheduler` until that callback fired; Internal when the
/// simulation drains first. The synchronous wrappers of Overlay and
/// core::Cluster are built on it.
template <typename T, typename Start>
T RunToCompletion(sim::Scheduler& scheduler, std::string_view what,
                  Start start) {
  std::optional<T> out;
  start([&out](T r) { out = std::move(r); });
  scheduler.RunUntil([&out] { return out.has_value(); });
  if (!out.has_value()) {
    return Status::Internal("simulation drained before ", what,
                            " completed");
  }
  return std::move(*out);
}

/// \brief Owns a Transport + N peers on top of a Scheduler, and provides
/// balanced construction, decentralized exchange rounds, synchronous
/// operation wrappers for tests/benchmarks, and churn control.
///
/// This is harness code: the peers never use its global knowledge; all
/// protocol decisions happen inside pgrid::Peer with local state only.
class Overlay {
 public:
  Overlay(OverlayOptions options, std::unique_ptr<sim::LatencyModel> latency);

  /// Convenience: overlay with constant 1 ms latency.
  explicit Overlay(OverlayOptions options = {});

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Adds `n` fresh peers (empty paths). Returns the first new id.
  net::PeerId AddPeers(size_t n);

  /// Assigns a balanced trie over all current peers: ceil(n/replication)
  /// leaf paths, peers round-robin across paths, replicas linked and
  /// routing references sampled globally. Instant (no protocol messages) —
  /// the decentralized path is RunExchangeRounds().
  void BuildBalanced();

  /// Like BuildBalanced() but over the given leaf paths (a prefix-free
  /// cover of the key space; peers round-robin across them). Lets the
  /// harness shape skewed tries — e.g. a deep subtree under one
  /// attribute's partition so envelope walks span many peers — without
  /// running data-driven construction.
  void BuildWithPaths(const std::vector<std::string>& paths);

  /// Runs `rounds` rounds of random pairwise exchanges (each alive peer
  /// initiates one meeting per round; recursive meetings run to
  /// completion). This is the paper's "pair-wise interactions without
  /// central coordination" construction.
  void RunExchangeRounds(size_t rounds);

  Peer* peer(net::PeerId id) { return peers_[id].get(); }
  const Peer* peer(net::PeerId id) const { return peers_[id].get(); }
  size_t size() const { return peers_.size(); }

  sim::Scheduler& scheduler() { return scheduler_; }
  net::Transport& transport() { return *transport_; }
  Rng& rng() { return rng_; }

  // --- Global helpers (tests / benchmarks only) ---------------------------

  /// Ids of alive peers whose path is a prefix of `key`.
  std::vector<net::PeerId> ResponsiblePeers(const Key& key) const;

  /// Stores an entry directly at every responsible peer (bulk loading).
  /// Returns the number of peers that stored it.
  size_t InsertDirect(const Entry& entry);

  /// Live-entry counts across alive peers (load-balance metrics).
  SampleStats StorageDistribution() const;

  /// Maximum path length over alive peers (trie depth).
  size_t MaxPathDepth() const;

  // --- Synchronous wrappers (drive the simulation until completion) ------

  Result<LookupResult> LookupSync(net::PeerId from, const Key& key);
  /// Looks up every entry under each of `keys`.
  Result<LookupBatchResult> LookupBatchSync(net::PeerId from,
                                            const std::vector<Key>& keys);
  Result<LookupBatchResult> LookupBatchSync(net::PeerId from,
                                            KeySuffixes keys);
  Status InsertSync(net::PeerId from, Entry entry);
  Status InsertBatchSync(net::PeerId from, std::vector<Entry> entries);
  Status RemoveSync(net::PeerId from, const Key& key,
                    const std::string& entry_id, uint64_t version);
  Result<RangeResult> RangeSeqSync(net::PeerId from, const KeyRange& range);
  Result<RangeResult> RangeShowerSync(net::PeerId from,
                                      const KeyRange& range);
  Status ExchangeSync(net::PeerId initiator, net::PeerId other);
  Status PullFromReplicaSync(net::PeerId who);

  // --- Churn --------------------------------------------------------------

  void Crash(net::PeerId id) { transport_->SetAlive(id, false); }
  void Revive(net::PeerId id) { transport_->SetAlive(id, true); }
  bool IsAlive(net::PeerId id) const { return transport_->IsAlive(id); }
  std::vector<net::PeerId> AlivePeers() const;

  /// \brief Installs a declarative churn schedule (net/churn_plane.h) and
  /// compiles it into lifecycle events. Returns the ids of the freshly
  /// registered joiners, in spec order.
  ///
  /// Three harness-time steps, after which the run needs no further
  /// harness help: (1) one fresh peer is registered per join spec whose
  /// `peer` is unresolved, and `kAnyPeer` sponsors resolve to the
  /// deepest-path, most-loaded existing peer that the schedule keeps up
  /// at join time; (2) the resolved schedule goes to the transport, whose
  /// churn plane evaluates liveness windows as a pure function of virtual
  /// time; (3) protocol actions — Restart at a crash's restart edge,
  /// GracefulLeave at a leave's announce time, JoinVia at a join time —
  /// are scheduled as events of the affected peer's own domain, so the
  /// whole lifecycle replays byte-identically. Call after construction,
  /// before the workload; every scheduled time must be >= Now().
  std::vector<net::PeerId> InstallChurn(net::ChurnSchedule schedule);

  /// Aggregated lifecycle counters across all peers (DESIGN.md §11).
  /// Harness-time only: reads per-peer state.
  struct LifecycleStats {
    uint64_t restarts = 0;
    uint64_t joins_completed = 0;
    uint64_t leaves_completed = 0;
    uint64_t handoff_entries = 0;
    uint64_t recruits_completed = 0;
    uint64_t replicas_confirmed_dead = 0;
    /// Slowest post-restart catch-up pull (virtual us) over all peers.
    sim::SimTime max_restart_catchup_us = 0;

    std::string ToString() const;
  };
  LifecycleStats AggregateLifecycleStats() const;

 private:
  OverlayOptions options_;
  sim::Scheduler scheduler_;  ///< Outlives the transport and the peers.
  std::unique_ptr<net::Transport> transport_;
  Rng rng_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

/// Generates `count` balanced trie paths under `prefix` (left-heavy for
/// non-powers of two). Exposed for tests.
void GenerateBalancedPaths(size_t count, const std::string& prefix,
                           std::vector<std::string>* out);

/// \brief A prefix-free cover of the whole key space that places
/// `inside_leaves` balanced leaf paths under the common prefix of `range`
/// and one complement path per prefix bit outside it.
///
/// Feeding the result to BuildWithPaths() yields a trie that is deep
/// exactly inside `range` — e.g. one attribute's partition spanning
/// `inside_leaves` peers, the shape the batched envelope executor's
/// fan-out and pipelining need (DESIGN.md §4). The inside paths are the
/// last `inside_leaves` entries, so with one peer per path their ids are
/// the tail of the id range.
std::vector<std::string> PartitionCoverPaths(const KeyRange& range,
                                             size_t inside_leaves);

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_OVERLAY_H_
