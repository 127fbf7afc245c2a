// Deterministic peer lifecycle plane: scripted crashes, restarts, graceful
// leaves and live joins (DESIGN.md §11).
//
// A ChurnSchedule is the peer-lifetime counterpart of the link-level
// FaultSchedule (net/fault_plane.h): a declarative list of lifecycle specs
// the harness installs before the run. The schedule splits into two
// halves that together make churn replay byte-identically:
//
//   - *Liveness windows* are evaluated by the transport. Whether a peer is
//     down is a pure function of (Now, peer) over the immutable schedule —
//     crash: down over [at, restart_at); leave: down from `at + drain_us`
//     on; join: down until `at`. No liveness bit is flipped during the
//     run.
//
//   - *Lifecycle protocol actions* (rebuilding a restarted peer's store
//     through crash recovery, the join handshake, the leave hand-off) are
//     compiled by pgrid::Overlay::InstallChurn into ordinary scheduler
//     events in the affected peer's own domain, like any protocol timer
//     of that peer.
//
// The transport drops messages *from* a down peer at send time (a crashed
// process cannot transmit — its stale timers may still fire, but nothing
// leaves the machine) and *to* a down peer at delivery time, both counted
// as TrafficStats::messages_lost_churn.
#ifndef UNISTORE_NET_CHURN_PLANE_H_
#define UNISTORE_NET_CHURN_PLANE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "net/fault_plane.h"  // kAnyPeer (shared wildcard sentinel).
#include "net/message.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {

/// Restart time of a crash that never recovers (permanent loss).
constexpr sim::SimTime kNeverRestarts =
    std::numeric_limits<sim::SimTime>::max();

/// \brief Declarative peer-lifecycle script. Built by the harness (tests,
/// benches, core::ClusterOptions) and installed through
/// pgrid::Overlay::InstallChurn, which resolves join peer ids, compiles
/// the protocol-action events, and hands the schedule to the transport.
///
/// The builder helpers return *this so schedules read as scripts:
///
///   ChurnSchedule churn;
///   churn.Crash(3, 2 * kSec, /*restart_at=*/6 * kSec)
///        .Crash(9, 4 * kSec)                    // never restarts
///        .Leave(5, 8 * kSec, /*drain_us=*/500 * kMs)
///        .Join(10 * kSec, /*sponsor=*/7)
///        .Join(12 * kSec);                      // sponsor auto-picked
struct ChurnSchedule {
  /// Crash at `at`; restart (same PeerId, durable state replayed through
  /// the storage backend's crash-recovery path) at `restart_at`.
  struct CrashSpec {
    PeerId peer = kNoPeer;
    sim::SimTime at = 0;
    sim::SimTime restart_at = kNeverRestarts;
  };

  /// Graceful leave: the hand-off protocol starts at `at`; the peer stays
  /// reachable for `drain_us` (the hand-off window) and is down for good
  /// from `at + drain_us`.
  struct LeaveSpec {
    PeerId peer = kNoPeer;
    sim::SimTime at = 0;
    sim::SimTime drain_us = 0;
  };

  /// Fresh join at `at` through `sponsor` (kAnyPeer: Overlay::InstallChurn
  /// picks the deepest-path, most-loaded alive peer — "split the
  /// longest-loaded path"). `peer` is assigned by InstallChurn when it
  /// registers the joiner; the joiner is down until `at`.
  struct JoinSpec {
    PeerId peer = kNoPeer;  ///< Filled in by Overlay::InstallChurn.
    sim::SimTime at = 0;
    PeerId sponsor = kAnyPeer;
  };

  std::vector<CrashSpec> crashes;
  std::vector<LeaveSpec> leaves;
  std::vector<JoinSpec> joins;

  bool empty() const {
    return crashes.empty() && leaves.empty() && joins.empty();
  }

  /// Total scripted lifecycle events (a crash with a restart counts two).
  size_t EventCount() const;

  ChurnSchedule& Crash(PeerId peer, sim::SimTime at,
                       sim::SimTime restart_at = kNeverRestarts);
  ChurnSchedule& Leave(PeerId peer, sim::SimTime at, sim::SimTime drain_us);
  ChurnSchedule& Join(sim::SimTime at, PeerId sponsor = kAnyPeer);
};

/// \brief Evaluates the liveness half of a ChurnSchedule. Owned by the
/// transport; immutable after construction.
class ChurnPlane {
 public:
  explicit ChurnPlane(const ChurnSchedule& schedule);

  /// True iff `peer` is down at `now` under the schedule. Pure function of
  /// the immutable window list.
  bool Down(sim::SimTime now, PeerId peer) const {
    if (peer >= windows_.size()) return false;
    for (const Window& w : windows_[peer]) {
      if (now >= w.from && now < w.until) return true;
    }
    return false;
  }

  const ChurnSchedule& schedule() const { return schedule_; }

 private:
  struct Window {
    sim::SimTime from;
    sim::SimTime until;
  };

  ChurnSchedule schedule_;
  std::vector<std::vector<Window>> windows_;  ///< Indexed by PeerId.
};

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_CHURN_PLANE_H_
