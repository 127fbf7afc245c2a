// EnvelopeCoordinator: the initiator-side state machine of a batched,
// pipelined Migrate join (DESIGN.md §4).
//
// One coordinator owns one logical join. It splits the right attribute's
// partition into up to `fanout` disjoint sub-ranges (branches), chunks the
// left bindings into envelopes of at most `max_bindings_per_envelope`
// rows, and launches one envelope walk per (branch, chunk). Visited peers
// stream partial replies carrying the key interval they covered; the
// coordinator assembles those intervals into a per-walk coverage frontier,
// deduplicates retransmitted intervals, relaunches a stalled or lost walk
// from the first coverage gap (bounded by a retry budget), and declares
// the join done when every walk's branch range is fully covered. A walk
// whose retries run out is abandoned with its uncovered interval named as
// a coverage gap; it never fails the join.
//
// The class is a pure state machine: it never touches the network or the
// scheduler. QueryService feeds it decoded replies and timer firings,
// performs the sends it asks for, and owns each walk's timer, restarting
// it whenever a reply reports progress — which keeps every transition
// unit-testable and deterministic under any engine.
#ifndef UNISTORE_EXEC_ENVELOPE_COORDINATOR_H_
#define UNISTORE_EXEC_ENVELOPE_COORDINATOR_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "exec/envelope.h"
#include "pgrid/key.h"

namespace unistore {
namespace exec {

/// TrafficStats retry-counter key of the exec layer (common/retry_policy.h).
inline constexpr std::string_view kWalkRetryPolicy = "envelope-walk";

/// What a finished Migrate join returns (rows plus the execution shape,
/// for traces and benchmarks).
struct MigrateResult {
  /// Join results in canonical order (sorted by encoded bytes), so the
  /// bytes are identical whatever the fan-out, chunking, retry or arrival
  /// schedule was.
  std::vector<Binding> rows;
  /// Serving-peer visits: per branch the maximum over its chunks, summed
  /// across branches (chunks of one branch revisit the same peers).
  uint32_t peers_visited = 0;
  uint32_t branches = 0;
  uint32_t chunks_per_branch = 0;
  uint32_t envelopes_launched = 0;  ///< Including relaunches.
  uint32_t retries = 0;
  /// Most peers one walk served in sequence: the longest chain of leaves
  /// a (branch, chunk) envelope was forwarded along.
  uint32_t max_walk_peers = 0;
  /// False when any walk was abandoned (retries or the join deadline ran
  /// out): `rows` is a partial answer and `coverage_gaps` names exactly
  /// what is missing.
  bool complete = true;
  /// Uncovered key intervals [lo_bits, hi_bits] of abandoned walks.
  std::vector<std::pair<std::string, std::string>> coverage_gaps;
};

/// \brief Splits `range` into up to `max_parts` sub-ranges with roughly
/// equal numbers of *sampled peer regions* each (statistics-informed
/// fan-out): boundaries fall on the sampled peers' region starts, so an
/// adaptive trie's deep (data-dense) subtrees split evenly instead of
/// landing in one branch. With fewer than two intersecting sampled
/// regions this degrades to the density-blind subtree bisection
/// (pgrid::SplitRange). `peer_paths` is the catalog's sorted sample.
std::vector<pgrid::KeyRange> SplitRangeByPathSample(
    const pgrid::KeyRange& range, const std::vector<pgrid::Key>& peer_paths,
    size_t max_parts, size_t key_width);

class EnvelopeCoordinator {
 public:
  /// `walk_retries` is the relaunch budget of each (branch, chunk) walk
  /// (the initiator passes its peer's request_retries). `walk_id_base`
  /// seeds the unique walk-instance ids (the initiator passes its request
  /// id so ids do not collide across joins).
  /// `peer_path_sample` (the stats catalog's gossiped path sample) steers
  /// the fan-out split; pass empty for the density-blind fallback.
  EnvelopeCoordinator(net::PeerId initiator, vql::TriplePattern pattern,
                      pgrid::KeyRange range, std::vector<Binding> bindings,
                      const cost::MigrateBatching& batching,
                      uint32_t walk_retries,
                      size_t key_width, uint64_t walk_id_base,
                      const std::vector<pgrid::Key>& peer_path_sample = {});

  /// The initial envelope fleet (branches x chunks). Call exactly once.
  std::vector<PlanEnvelope> Launch();

  struct ReplyOutcome {
    bool accepted = false;  ///< Coverage was new (not a duplicate).
    /// Walks to relaunch immediately (error replies with retry budget).
    std::vector<PlanEnvelope> relaunch;
    /// The reply's walk advanced, was relaunched, or ended:
    /// its timer restarts, or stops once walk_done().
    bool progress = false;
  };
  /// Feeds one decoded reply (partial or terminal), consuming its result
  /// rows.
  ReplyOutcome OnReply(EnvelopeReply reply);

  struct TimerOutcome {
    /// kAbandon: the walk was out of retries and is given up — its gap is
    /// recorded and done() may now be true; nothing to send or re-arm.
    enum class Action { kIgnore, kRelaunch, kAbandon };
    Action action = Action::kIgnore;
    PlanEnvelope envelope;  ///< For kRelaunch.
  };
  /// The timer of walk (branch, chunk) fired: it made no progress for a
  /// whole request_timeout.
  TimerOutcome OnTimer(uint32_t branch, uint32_t chunk);

  /// Abandons every still-incomplete walk. The overall-deadline path uses
  /// this to turn a timeout into a partial result with explicit gaps;
  /// afterwards done() is true.
  void AbandonIncomplete();

  /// True when every walk's branch range is covered or abandoned.
  bool done() const { return walks_done_ == walks_.size(); }
  /// Requires done(). Moves the merged, canonically sorted result out.
  MigrateResult TakeResult();

  uint32_t branch_count() const { return static_cast<uint32_t>(branches_.size()); }
  uint32_t chunk_count() const { return static_cast<uint32_t>(chunks_.size()); }
  /// True once the walk is fully covered or abandoned.
  bool walk_done(uint32_t branch, uint32_t chunk) const {
    return walks_[branch * chunks_.size() + chunk].complete;
  }

 private:
  struct Walk {
    pgrid::KeyRange range;     ///< The branch sub-range (shared by chunks).
    pgrid::Key frontier;       ///< First uncovered key; empty = overflow.
    bool complete = false;
    bool abandoned = false;    ///< Gave up with a recorded coverage gap.
    uint32_t retries_left = 0;
    uint64_t latest_walk_id = 0;  ///< Current instance; stale errors ignored.
    uint32_t peer_visits = 0;  ///< Accepted replies (one serving peer each).
    /// Accepted but not-yet-contiguous coverage: covered_lo -> covered_hi.
    std::map<pgrid::Key, pgrid::Key> pending;
    /// Every accepted interval: covered_lo -> covered_hi (kept after
    /// consumption — detects racing instances that extend past it).
    std::map<pgrid::Key, pgrid::Key> accepted;
    /// Results keyed by covered_lo (the dedupe key).
    std::map<pgrid::Key, std::vector<Binding>> results;
  };

  Walk& walk(uint32_t branch, uint32_t chunk) {
    return walks_[branch * chunks_.size() + chunk];
  }
  PlanEnvelope MakeEnvelope(uint32_t branch, uint32_t chunk);
  void AdvanceFrontier(Walk* w);
  /// Marks a retry-exhausted walk done-with-gap: records
  /// [frontier, range.hi] as a coverage gap and counts the walk as
  /// finished so the join can complete around it.
  void AbandonWalk(Walk* w);

  net::PeerId initiator_;
  vql::TriplePattern pattern_;
  uint32_t walk_retries_;
  std::vector<pgrid::KeyRange> branches_;
  std::vector<std::vector<Binding>> chunks_;
  std::vector<Walk> walks_;
  size_t walks_done_ = 0;
  size_t walks_abandoned_ = 0;
  uint64_t next_walk_id_;
  uint32_t envelopes_launched_ = 0;
  uint32_t retries_ = 0;
};

}  // namespace exec
}  // namespace unistore

#endif  // UNISTORE_EXEC_ENVELOPE_COORDINATOR_H_
