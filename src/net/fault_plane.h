// Deterministic network fault plane: scripted, per-link WAN failure modes.
//
// A FaultSchedule is a declarative list of rules. Each rule is active over
// a virtual-time window [from, until) on a directed link selector (src,
// dst — kAnyPeer wildcards either side) and injects one failure mode:
//
//   kPartition — every matching send is dropped; the link heals at `until`.
//   kDelay     — adds a fixed asymmetric skew plus bounded uniform jitter
//                on top of the latency model's sample.
//   kReorder   — with `probability`, pushes a message's delivery by a
//                uniform draw from [0, window_us]; later same-link sends
//                can then overtake it (the scheduler orders events by
//                (when, domain, seq), so a smaller draw delivers first).
//   kDuplicate — with `probability`, delivers a second, independently
//                delayed copy of the message.
//   kCorrupt   — with `probability`, flips payload bytes before delivery,
//                so receive-side decoders exercise their rejection paths.
//
// Determinism: whether a rule is active is a pure function of
// (Now, src, dst) — the schedule itself is immutable after installation —
// and every stochastic draw comes from the *source* peer's RNG stream, so
// the draw sequence depends only on that peer's own send history. Runs
// therefore replay byte-identically (DESIGN.md §10).
#ifndef UNISTORE_NET_FAULT_PLANE_H_
#define UNISTORE_NET_FAULT_PLANE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {

/// Wildcard peer selector in a FaultRule (matches every peer).
constexpr PeerId kAnyPeer = kNoPeer;

/// A rule window that never heals.
constexpr sim::SimTime kFaultForever = INT64_MAX;

/// One scripted fault on a directed link selector.
struct FaultRule {
  enum class Kind : uint8_t {
    kPartition,
    kDelay,
    kReorder,
    kDuplicate,
    kCorrupt,
  };

  Kind kind = Kind::kPartition;
  sim::SimTime from = 0;                ///< Active window start (inclusive).
  sim::SimTime until = kFaultForever;   ///< Heal time (exclusive).
  PeerId src = kAnyPeer;                ///< Directed link: sender side.
  PeerId dst = kAnyPeer;                ///< Directed link: receiver side.
  sim::SimTime delay_us = 0;            ///< kDelay: fixed asymmetric skew.
  sim::SimTime jitter_us = 0;           ///< kDelay: bounded uniform jitter.
  sim::SimTime window_us = 0;           ///< kReorder: max delivery push.
  double probability = 1.0;             ///< kReorder/kDuplicate/kCorrupt.

  bool Matches(sim::SimTime now, PeerId s, PeerId d) const {
    if (now < from || now >= until) return false;
    if (src != kAnyPeer && src != s) return false;
    if (dst != kAnyPeer && dst != d) return false;
    return true;
  }
};

/// \brief Declarative fault script. Built by the harness (tests, benches,
/// core::ClusterOptions) and installed on the transport before the run.
///
/// The builder helpers return *this so schedules read as scripts:
///
///   FaultSchedule s;
///   s.PartitionPair(2 * kSec, 6 * kSec, 3, 7)   // both directions, heals
///    .Delay(0, kFaultForever, kAnyPeer, 5, 2000, 500)
///    .Corrupt(1 * kSec, 4 * kSec, kAnyPeer, kAnyPeer, 0.05);
struct FaultSchedule {
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Directed partition of src->dst over [from, until).
  FaultSchedule& Partition(sim::SimTime from, sim::SimTime until, PeerId src,
                           PeerId dst);

  /// Symmetric partition: both directions between a and b.
  FaultSchedule& PartitionPair(sim::SimTime from, sim::SimTime until, PeerId a,
                               PeerId b);

  /// Asymmetric extra latency: fixed `delay_us` plus uniform [0, jitter_us]
  /// on every matching send.
  FaultSchedule& Delay(sim::SimTime from, sim::SimTime until, PeerId src,
                       PeerId dst, sim::SimTime delay_us,
                       sim::SimTime jitter_us);

  /// Reordering window: with `probability`, a matching send's delivery is
  /// pushed by uniform [0, window_us] so later sends can overtake it.
  FaultSchedule& Reorder(sim::SimTime from, sim::SimTime until, PeerId src,
                         PeerId dst, sim::SimTime window_us,
                         double probability);

  /// Message duplication with the given probability.
  FaultSchedule& Duplicate(sim::SimTime from, sim::SimTime until, PeerId src,
                           PeerId dst, double probability);

  /// Payload corruption with the given probability.
  FaultSchedule& Corrupt(sim::SimTime from, sim::SimTime until, PeerId src,
                         PeerId dst, double probability);
};

/// \brief Evaluates a FaultSchedule for individual sends. Owned by the
/// transport; immutable after construction.
class FaultPlane {
 public:
  explicit FaultPlane(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  /// The combined effect of all active matching rules on one send.
  struct LinkEffects {
    bool partitioned = false;      ///< Drop the message (counted).
    sim::SimTime extra_delay = 0;  ///< Added on top of the latency sample.
    bool duplicate = false;        ///< Schedule a second delivery.
    bool corrupt = false;          ///< Flip payload bytes before delivery.
  };

  /// Evaluates the schedule for a send src->dst at `now`. Rules are
  /// consulted in schedule order; stochastic draws (jitter, reorder push,
  /// duplication and corruption coin flips) come from `rng`, the source
  /// peer's stream. Partitioned links short-circuit: no draws are spent on
  /// a message that is dropped anyway.
  LinkEffects Apply(sim::SimTime now, PeerId src, PeerId dst, Rng* rng) const;

  /// Pure partition query — no draws, usable from any context.
  bool Partitioned(sim::SimTime now, PeerId src, PeerId dst) const;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  FaultSchedule schedule_;
};

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_FAULT_PLANE_H_
