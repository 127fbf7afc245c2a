#include "pgrid/overlay.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace unistore {
namespace pgrid {

void GenerateBalancedPaths(size_t count, const std::string& prefix,
                           std::vector<std::string>* out) {
  UNISTORE_CHECK(count > 0);
  if (count == 1) {
    out->push_back(prefix);
    return;
  }
  size_t left = (count + 1) / 2;
  GenerateBalancedPaths(left, prefix + "0", out);
  GenerateBalancedPaths(count - left, prefix + "1", out);
}

std::vector<std::string> PartitionCoverPaths(const KeyRange& range,
                                             size_t inside_leaves) {
  const size_t prefix_len = range.lo.CommonPrefixLength(range.hi);
  const std::string base = range.lo.bits().substr(0, prefix_len);
  std::vector<std::string> paths;
  paths.reserve(prefix_len + inside_leaves);
  for (size_t i = 0; i < prefix_len; ++i) {
    std::string complement = base.substr(0, i);
    complement.push_back(base[i] == '0' ? '1' : '0');
    paths.push_back(std::move(complement));
  }
  GenerateBalancedPaths(std::max<size_t>(1, inside_leaves), base, &paths);
  return paths;
}

Overlay::Overlay(OverlayOptions options,
                 std::unique_ptr<sim::LatencyModel> latency)
    : options_(options), rng_(options.seed) {
  transport_ = std::make_unique<net::Transport>(
      &scheduler_, std::move(latency), rng_.Next());
  transport_->set_loss_probability(options_.loss_probability);
  if (!options_.fault_schedule.empty()) {
    transport_->SetFaultSchedule(options_.fault_schedule);
  }
}

Overlay::Overlay(OverlayOptions options)
    : Overlay(options, std::make_unique<sim::ConstantLatency>(
                           1 * sim::kMicrosPerMilli)) {}

net::PeerId Overlay::AddPeers(size_t n) {
  net::PeerId first = static_cast<net::PeerId>(peers_.size());
  for (size_t i = 0; i < n; ++i) {
    peers_.push_back(
        std::make_unique<Peer>(transport_.get(), rng_.Next(), options_.peer));
  }
  return first;
}

void Overlay::BuildBalanced() {
  UNISTORE_CHECK(!peers_.empty());
  const size_t n = peers_.size();
  const size_t replication = std::max<size_t>(1, options_.replication);
  const size_t leaves = (n + replication - 1) / replication;

  std::vector<std::string> paths;
  GenerateBalancedPaths(leaves, "", &paths);
  BuildWithPaths(paths);
}

void Overlay::BuildWithPaths(const std::vector<std::string>& paths) {
  UNISTORE_CHECK(!peers_.empty());
  UNISTORE_CHECK(!paths.empty());
  const size_t n = peers_.size();
  const size_t leaves = paths.size();

  // Round-robin assignment: peer i -> paths[i % leaves]; peers sharing a
  // path become replicas of each other.
  std::map<std::string, std::vector<net::PeerId>> by_path;
  for (size_t i = 0; i < n; ++i) {
    const std::string& path = paths[i % leaves];
    peers_[i]->SetPath(Key::FromBits(path));
    by_path[path].push_back(static_cast<net::PeerId>(i));
  }

  // Sorted path list for prefix-range candidate search.
  std::vector<std::pair<std::string, net::PeerId>> sorted;
  sorted.reserve(n);
  for (const auto& [path, ids] : by_path) {
    for (net::PeerId id : ids) sorted.emplace_back(path, id);
  }
  std::sort(sorted.begin(), sorted.end());

  auto candidates_with_prefix = [&sorted](const std::string& prefix) {
    std::vector<net::PeerId> out;
    auto lo = std::lower_bound(
        sorted.begin(), sorted.end(), prefix,
        [](const auto& e, const std::string& p) { return e.first < p; });
    for (auto it = lo; it != sorted.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      out.push_back(it->second);
    }
    return out;
  };

  for (size_t i = 0; i < n; ++i) {
    Peer& p = *peers_[i];
    const std::string path = p.path().bits();
    // Replicas.
    for (net::PeerId other : by_path[path]) {
      if (other != p.id()) p.routing().AddReplica(other);
    }
    // References: up to kMaxRefsPerLevel random peers per opposite subtree.
    for (size_t l = 0; l < path.size(); ++l) {
      std::string sibling = path.substr(0, l);
      sibling.push_back(path[l] == '0' ? '1' : '0');
      std::vector<net::PeerId> cands = candidates_with_prefix(sibling);
      rng_.Shuffle(&cands);
      size_t take = std::min(RoutingTable::kMaxRefsPerLevel, cands.size());
      for (size_t k = 0; k < take; ++k) {
        p.routing().AddRef(l, cands[k], &p.rng());
      }
    }
  }
}

void Overlay::RunExchangeRounds(size_t rounds) {
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<net::PeerId> order = AlivePeers();
    rng_.Shuffle(&order);
    sim::SimTime stagger = 0;
    for (net::PeerId initiator : order) {
      // Uniform random partner. (The harness samples the meeting; the
      // protocol itself is fully decentralized.)
      if (order.size() < 2) break;
      net::PeerId other = initiator;
      while (other == initiator) {
        other = order[rng_.NextBounded(order.size())];
      }
      stagger += 500;  // 0.5 ms apart to avoid artificial collisions.
      scheduler_.Schedule(stagger, [this, initiator, other]() {
        peers_[initiator]->InitiateExchange(other, [](Status) {});
      });
    }
    scheduler_.RunUntilIdle();
  }
}

std::vector<net::PeerId> Overlay::ResponsiblePeers(const Key& key) const {
  std::vector<net::PeerId> out;
  for (const auto& p : peers_) {
    if (transport_->IsAlive(p->id()) && p->IsResponsible(key)) {
      out.push_back(p->id());
    }
  }
  return out;
}

size_t Overlay::InsertDirect(const Entry& entry) {
  size_t stored = 0;
  for (const auto& p : peers_) {
    if (p->IsResponsible(entry.key)) {
      p->ApplyLocal(entry);
      ++stored;
    }
  }
  return stored;
}

SampleStats Overlay::StorageDistribution() const {
  SampleStats stats;
  for (const auto& p : peers_) {
    if (transport_->IsAlive(p->id())) {
      stats.Add(static_cast<double>(p->store().live_size()));
    }
  }
  return stats;
}

size_t Overlay::MaxPathDepth() const {
  size_t depth = 0;
  for (const auto& p : peers_) {
    if (transport_->IsAlive(p->id())) {
      depth = std::max(depth, p->path().size());
    }
  }
  return depth;
}

std::vector<net::PeerId> Overlay::AlivePeers() const {
  std::vector<net::PeerId> out;
  for (const auto& p : peers_) {
    if (transport_->IsAlive(p->id())) out.push_back(p->id());
  }
  return out;
}

std::vector<net::PeerId> Overlay::InstallChurn(net::ChurnSchedule schedule) {
  const size_t existing = peers_.size();
  const sim::SimTime now = scheduler_.Now();

  // Step 1: register one fresh (pathless, empty) peer per unresolved join
  // spec. Ids are assigned in spec order, so the result is deterministic.
  std::vector<net::PeerId> joiners;
  joiners.reserve(schedule.joins.size());
  for (net::ChurnSchedule::JoinSpec& join : schedule.joins) {
    UNISTORE_CHECK(join.at >= now) << "join scheduled in the past";
    if (join.peer == net::kNoPeer) join.peer = AddPeers(1);
    joiners.push_back(join.peer);
  }

  // Whether a pre-existing peer is down at `when` under this schedule
  // (sponsor candidates must be up when the join fires).
  auto down_at = [&schedule](net::PeerId peer, sim::SimTime when) {
    for (const auto& c : schedule.crashes) {
      if (c.peer == peer && when >= c.at && when < c.restart_at) return true;
    }
    for (const auto& l : schedule.leaves) {
      if (l.peer == peer && when >= l.at + l.drain_us) return true;
    }
    return false;
  };

  // Resolve kAnyPeer sponsors: deepest path, then most loaded, then
  // lowest id — "split the longest-loaded path". Only peers that existed
  // before this install qualify (joiners are pathless and possibly still
  // down when another join fires).
  for (net::ChurnSchedule::JoinSpec& join : schedule.joins) {
    if (join.sponsor != net::kAnyPeer) continue;
    net::PeerId best = net::kNoPeer;
    for (size_t i = 0; i < existing; ++i) {
      const Peer& p = *peers_[i];
      if (down_at(p.id(), join.at) || !transport_->IsAlive(p.id())) continue;
      if (best == net::kNoPeer) {
        best = p.id();
        continue;
      }
      const Peer& b = *peers_[best];
      if (p.path().size() != b.path().size()) {
        if (p.path().size() > b.path().size()) best = p.id();
      } else if (p.store().live_size() > b.store().live_size()) {
        best = p.id();
      }
    }
    UNISTORE_CHECK(best != net::kNoPeer) << "no sponsor available for join";
    join.sponsor = best;
  }

  for (const auto& c : schedule.crashes) {
    UNISTORE_CHECK(c.peer < peers_.size());
    UNISTORE_CHECK(c.at >= now) << "crash scheduled in the past";
  }
  for (const auto& l : schedule.leaves) {
    UNISTORE_CHECK(l.peer < peers_.size());
    UNISTORE_CHECK(l.at >= now) << "leave scheduled in the past";
  }

  // Step 3: compile protocol actions into events of the affected peer's
  // own domain before the schedule moves to the transport, like any
  // protocol timer of that peer.
  for (const auto& c : schedule.crashes) {
    if (c.restart_at == net::kNeverRestarts) continue;
    const net::PeerId peer = c.peer;
    scheduler_.ScheduleEvent(c.restart_at, peer,
                             [this, peer]() { peers_[peer]->Restart(); });
  }
  for (const auto& l : schedule.leaves) {
    const net::PeerId peer = l.peer;
    scheduler_.ScheduleEvent(l.at, peer,
                             [this, peer]() { peers_[peer]->GracefulLeave(); });
  }
  for (const auto& join : schedule.joins) {
    const net::PeerId peer = join.peer;
    const net::PeerId sponsor = join.sponsor;
    scheduler_.ScheduleEvent(join.at, peer, [this, peer, sponsor]() {
      peers_[peer]->JoinVia(sponsor, [](Status) {});
    });
  }

  // Step 2 last: the transport asserts every spec is resolved.
  transport_->SetChurnSchedule(std::move(schedule));
  return joiners;
}

std::string Overlay::LifecycleStats::ToString() const {
  std::ostringstream os;
  os << "restarts=" << restarts << " joins=" << joins_completed
     << " leaves=" << leaves_completed << " handoff=" << handoff_entries
     << " recruits=" << recruits_completed
     << " confirmed_dead=" << replicas_confirmed_dead
     << " max_catchup_us=" << max_restart_catchup_us;
  return os.str();
}

Overlay::LifecycleStats Overlay::AggregateLifecycleStats() const {
  LifecycleStats stats;
  for (const auto& p : peers_) {
    const PeerCounters& c = p->counters();
    stats.restarts += c.restarts;
    stats.joins_completed += c.joins_completed;
    stats.leaves_completed += c.leaves_completed;
    stats.handoff_entries += c.handoff_entries;
    stats.recruits_completed += c.recruits_completed;
    stats.replicas_confirmed_dead += c.replicas_confirmed_dead;
    stats.max_restart_catchup_us =
        std::max(stats.max_restart_catchup_us, c.last_restart_catchup_us);
  }
  return stats;
}

Result<LookupResult> Overlay::LookupSync(net::PeerId from, const Key& key) {
  return RunToCompletion<Result<LookupResult>>(
      scheduler_, "lookup", [&](auto done) {
        peers_[from]->Lookup(key, done);
      });
}

Result<LookupBatchResult> Overlay::LookupBatchSync(
    net::PeerId from, const std::vector<Key>& keys) {
  KeySuffixes all;
  for (const Key& key : keys) all[key];
  return LookupBatchSync(from, std::move(all));
}

Result<LookupBatchResult> Overlay::LookupBatchSync(net::PeerId from,
                                                   KeySuffixes keys) {
  return RunToCompletion<Result<LookupBatchResult>>(
      scheduler_, "lookup", [&](auto done) {
        peers_[from]->LookupBatch(std::move(keys), done);
      });
}

Status Overlay::InsertSync(net::PeerId from, Entry entry) {
  return RunToCompletion<Status>(scheduler_, "insert", [&](auto done) {
    peers_[from]->Insert(std::move(entry), done);
  });
}

Status Overlay::InsertBatchSync(net::PeerId from,
                                std::vector<Entry> entries) {
  return RunToCompletion<Status>(scheduler_, "batch insert", [&](auto done) {
    peers_[from]->InsertBatch(std::move(entries), done);
  });
}

Status Overlay::RemoveSync(net::PeerId from, const Key& key,
                           const std::string& entry_id, uint64_t version) {
  return RunToCompletion<Status>(scheduler_, "remove", [&](auto done) {
    peers_[from]->Remove(key, entry_id, version, done);
  });
}

Result<RangeResult> Overlay::RangeSeqSync(net::PeerId from,
                                          const KeyRange& range) {
  return RunToCompletion<Result<RangeResult>>(
      scheduler_, "range scan",
      [&](auto done) { peers_[from]->RangeScanSeq(range, done); });
}

Result<RangeResult> Overlay::RangeShowerSync(net::PeerId from,
                                             const KeyRange& range) {
  return RunToCompletion<Result<RangeResult>>(
      scheduler_, "range scan",
      [&](auto done) { peers_[from]->RangeScanShower(range, done); });
}

Status Overlay::ExchangeSync(net::PeerId initiator, net::PeerId other) {
  return RunToCompletion<Status>(scheduler_, "exchange", [&](auto done) {
    peers_[initiator]->InitiateExchange(other, done);
  });
}

Status Overlay::PullFromReplicaSync(net::PeerId who) {
  return RunToCompletion<Status>(scheduler_, "pull", [&](auto done) {
    peers_[who]->PullFromReplica(done);
  });
}

}  // namespace pgrid
}  // namespace unistore
