// Cluster: a whole simulated UniStore deployment in one object.
//
// Owns the overlay (scheduler + transport + peers) and one UniStore node
// per peer; provides synchronous wrappers that drive the virtual clock, a
// measured-query API for the benchmarks, and statistics maintenance.
#ifndef UNISTORE_CORE_CLUSTER_H_
#define UNISTORE_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/unistore.h"
#include "pgrid/overlay.h"
#include "sim/latency.h"

namespace unistore {
namespace core {

/// Cluster-wide configuration.
struct ClusterOptions {
  size_t peers = 16;
  size_t replication = 1;
  /// These three do nothing: there is one event engine (sim::Scheduler).
  /// The benchmark workloads (bench/e2e) still set them; they go with the
  /// next change to the benchmark.
  enum class Engine { kSingleThread, kSharded } engine = Engine::kSingleThread;
  size_t shards = 1;
  size_t threads = 0;
  /// true: instant balanced trie (default). false: peers start with empty
  /// paths — load data through node 0, then run
  /// overlay().RunExchangeRounds() to let the trie form data-driven
  /// (deep in dense key regions, the paper's adaptive construction).
  bool balanced_construction = true;
  /// Non-empty: build the trie over exactly these leaf paths (a
  /// prefix-free cover; peers round-robin across them) instead of the
  /// balanced one. Benchmarks and tests use it to shape a deep subtree
  /// under one attribute's partition, so batched envelope walks
  /// (node.envelope fan-out / chunking knobs) span many peers.
  std::vector<std::string> custom_paths;
  uint64_t seed = 42;
  double loss_probability = 0;
  /// Scripted link faults (partitions, jitter, duplication, corruption);
  /// empty = fault-free (net/fault_plane.h).
  net::FaultSchedule fault_schedule;
  /// Scripted peer lifecycle (crashes, restarts, leaves, joins); empty =
  /// churn-free (net/churn_plane.h). Installed after construction: joiner
  /// peers are registered with full UniStore nodes attached, and the
  /// lifecycle events replay byte-identically. Schedules can also be
  /// installed later via InstallChurn().
  net::ChurnSchedule churn_schedule;
  /// Latency model: constant LAN-ish delay or PlanetLab-like WAN.
  enum class Latency { kLan, kWan } latency = Latency::kLan;
  sim::SimTime lan_delay_us = 1000;
  sim::WanLatency::Options wan;
  pgrid::PeerOptions peer;
  NodeOptions node;
};

/// \brief A simulated N-node UniStore network.
class Cluster {
 public:
  /// Builds the overlay (balanced trie + replication) and attaches one
  /// UniStore node per peer.
  explicit Cluster(ClusterOptions options);

  size_t size() const { return nodes_.size(); }
  UniStore& node(net::PeerId id) { return *nodes_[id]; }
  pgrid::Overlay& overlay() { return *overlay_; }
  sim::Scheduler& scheduler() { return overlay_->scheduler(); }

  // --- Synchronous operations (drive the virtual clock) -------------------

  Status InsertTupleSync(net::PeerId via, const triple::Tuple& tuple);

  /// Bulk-loads a tuple batch through node `via` in one routed
  /// BulkInsert walk (the population path benches and examples use; see
  /// UniStore::BulkLoadTuples).
  Status BulkLoadTuplesSync(net::PeerId via,
                            const std::vector<triple::Tuple>& tuples);
  Status InsertTripleSync(net::PeerId via, const triple::Triple& triple);
  Status RemoveTripleSync(net::PeerId via, const triple::Triple& triple);
  Status InsertMappingSync(net::PeerId via, const std::string& from,
                           const std::string& to);
  Status LoadMappingsSync(net::PeerId via);

  Result<exec::QueryResult> QuerySync(net::PeerId via,
                                      const std::string& vql_text);

  /// A query with its resource consumption, as the benchmarks report it.
  struct Measured {
    exec::QueryResult result;
    net::TrafficStats traffic;       ///< Messages/bytes of this query only.
    sim::SimTime virtual_latency_us; ///< Virtual time start to finish.
  };
  Result<Measured> QueryMeasured(net::PeerId via,
                                 const std::string& vql_text);

  // --- Maintenance ---------------------------------------------------------

  /// First storage I/O error across all nodes' local stores (a disk
  /// backend wedge), or OK.
  Status StorageStatus() const;

  /// Rebuilds every node's local statistics and runs `gossip_rounds`
  /// rounds of statistics gossip.
  void RefreshStats(size_t gossip_rounds = 2);

  /// Applies planner options on every node.
  void SetPlannerOptions(const plan::PlannerOptions& options);

  /// Applies envelope execution knobs on every node (harness context).
  void SetEnvelopeOptions(const exec::EnvelopeOptions& options);

  // --- Peer lifecycle (DESIGN.md §11) -------------------------------------

  /// Installs a churn schedule (see ClusterOptions::churn_schedule):
  /// registers joiners through the overlay and attaches a UniStore node
  /// to each, so a joined peer serves queries like any other. Returns the
  /// joiners' ids. Harness-time only.
  std::vector<net::PeerId> InstallChurn(net::ChurnSchedule schedule);

  /// Aggregated lifecycle counters across all peers.
  pgrid::Overlay::LifecycleStats AggregateLifecycleStats() const {
    return overlay_->AggregateLifecycleStats();
  }

  /// The expected one-way hop latency of the configured model (feeds the
  /// cost model).
  double ExpectedHopLatencyUs() const;

 private:
  ClusterOptions options_;
  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<UniStore>> nodes_;
};

}  // namespace core
}  // namespace unistore

#endif  // UNISTORE_CORE_CLUSTER_H_
