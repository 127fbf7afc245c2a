// QueryService: the query-processing extension of one peer.
//
// Owns the peer's statistics catalog (built locally, spread by gossip) and
// implements the server side of the distributed operators that are not
// plain overlay primitives: mutant-query-plan envelopes (Migrate joins,
// batched and pipelined — DESIGN.md §4) and statistics gossip.
#ifndef UNISTORE_EXEC_QUERY_SERVICE_H_
#define UNISTORE_EXEC_QUERY_SERVICE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cost/stats.h"
#include "exec/binding.h"
#include "exec/envelope.h"
#include "exec/envelope_coordinator.h"
#include "pgrid/peer.h"

namespace unistore {
namespace exec {

/// Overall deadline of one Migrate join, whatever its walks' retries do.
inline constexpr sim::SimTime kMigrateDeadline = 20 * sim::kMicrosPerSecond;

class QueryService {
 public:
  using MigrateCallback = std::function<void(Result<MigrateResult>)>;

  /// Attaches to `peer` (registers the kPlanExec / kPlanExecPartial /
  /// kPlanExecReply and kStatsGossip extension handlers).
  explicit QueryService(pgrid::Peer* peer, EnvelopeOptions options = {});

  pgrid::Peer* peer() { return peer_; }

  /// Replaces the envelope knobs (harness context only; applies to joins
  /// started afterwards).
  void set_envelope_options(const EnvelopeOptions& options) {
    options_ = options;
  }

  /// The merged statistics view: this peer's local contribution plus the
  /// latest contribution received from every gossip origin (origin-keyed,
  /// so repeated gossip rounds never double-count), one contribution per
  /// peer path (replicas of a path hold the same triples).
  const cost::StatsCatalog& catalog() const;

  /// \brief Runs a Migrate join: ships `left` through the partition of
  /// `pattern`'s (literal) attribute; every peer forwards the envelope,
  /// joins locally and streams its rows back. Fan-out and binding
  /// chunking follow the configured EnvelopeOptions; results come back in
  /// canonical order regardless of those knobs.
  void RunMigrateJoin(const vql::TriplePattern& pattern,
                      std::vector<Binding> left, MigrateCallback callback);

  /// Rebuilds this peer's local statistics from its store: per-attribute
  /// triple counts / distinct values / numeric ranges (derived from the
  /// A#v index copies so each triple counts once), plus network estimates
  /// from the routing state (peer count ~ 2^|path|).
  void BuildLocalStats(double hop_latency_us);

  /// Sends the catalog to `fanout` random contacts (refs + replicas).
  void GossipStats(size_t fanout);

  /// Envelopes served or forwarded by this peer (observability).
  uint64_t envelopes_processed() const { return envelopes_processed_; }

  // --- Hot-path serving layer observability (DESIGN.md §8) ---------------

  /// kOverloaded sheds this peer answered as a server.
  uint64_t sheds() const { return sheds_; }
  /// Overload backoffs this peer performed as an initiator.
  uint64_t deferred_relaunches() const { return deferred_relaunches_; }
  /// Local joins currently queued behind busy_until_.
  uint32_t serving_queue_depth() const { return serving_queue_depth_; }

  /// \brief Crash-restart invalidation (DESIGN.md §11): drops every bit
  /// of volatile query state the process would lose.
  ///
  /// In-flight Migrate joins fail with Unavailable (their coordinator
  /// state died with the process), gossip-received statistics
  /// contributions reset, and the admission-control clock clears.
  /// Registered as the peer's restart hook by core::UniStore.
  void OnPeerRestart();

 private:
  /// The timers of one walk: its request_timeout progress deadline, and
  /// the relaunch deferred by an overload shed.
  struct WalkTimers {
    sim::EventId deadline = sim::kNoEvent;
    sim::EventId deferred = sim::kNoEvent;
  };
  struct MigrateRun {
    EnvelopeCoordinator coordinator;
    MigrateCallback callback;
    sim::EventId deadline = sim::kNoEvent;  ///< kMigrateDeadline.
    std::vector<WalkTimers> walks;  ///< By branch * chunk_count + chunk.
    /// Replies this peer served as the join's initiator, held for the
    /// simulated join time (DeliverReply).
    std::vector<sim::EventId> local_replies;

    WalkTimers& walk(uint32_t branch, uint32_t chunk) {
      return walks[branch * coordinator.chunk_count() + chunk];
    }
  };

  void OnPlanExec(const net::Message& msg);
  void OnEnvelopeReplyMessage(const net::Message& msg);
  void OnStatsGossip(const net::Message& msg);
  void ServeEnvelope(PlanEnvelope env, uint64_t request_id, uint32_t hops);

  /// Routes `env` toward its range (serving locally when responsible).
  /// Returns a synthesized error reply when no route exists.
  std::optional<EnvelopeReply> TrySendEnvelope(PlanEnvelope env,
                                               uint64_t request_id);
  /// Feeds a reply into the coordinator of `request_id`, performing the
  /// relaunches it asks for and finishing the join when done.
  void HandleEnvelopeReply(uint64_t request_id, EnvelopeReply reply,
                           uint32_t msg_hops);
  /// Restarts the walk's request_timeout deadline, or stops its timers
  /// once the walk is done.
  void ArmWalkTimer(uint64_t request_id, uint32_t branch, uint32_t chunk);
  void OnWalkTimer(uint64_t request_id, uint32_t branch, uint32_t chunk);
  /// Cancels every timer of `run` (it ended).
  void CancelTimers(const MigrateRun& run);
  void CheckMigrationDone(uint64_t request_id);
  void FinishMigration(uint64_t request_id, Result<MigrateResult> result);
  /// Delivers a reply to the walk's initiator: over the wire, or straight
  /// into the local coordinator when this peer is the initiator.
  void DeliverReply(net::PeerId initiator, uint64_t request_id,
                    uint32_t hops, sim::SimTime delay, EnvelopeReply reply);

  pgrid::Peer* peer_;
  EnvelopeOptions options_;
  /// Per-origin stats contributions; [self] is the local one.
  std::map<net::PeerId, cost::StatsCatalog> contributions_;
  mutable cost::StatsCatalog merged_;
  mutable bool merged_dirty_ = true;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, MigrateRun> migrations_;
  uint64_t envelopes_processed_ = 0;
  /// Virtual time until which this peer's (single) query executor is busy
  /// joining — envelope serving serializes per peer, which is exactly the
  /// latency that forwarding ahead of the join overlaps.
  sim::SimTime busy_until_ = 0;
  /// Local joins queued behind busy_until_ (admission-control bound).
  uint32_t serving_queue_depth_ = 0;
  uint64_t sheds_ = 0;
  uint64_t deferred_relaunches_ = 0;
};

}  // namespace exec
}  // namespace unistore

#endif  // UNISTORE_EXEC_QUERY_SERVICE_H_
