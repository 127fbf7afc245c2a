// UniStore: the public per-node API of the universal storage.
//
// One UniStore instance is the paper's full stack bound to one peer
// (Figure 1): triple storage + query processor on the P-Grid overlay. It
// offers tuple/triple/mapping writes, VQL queries, and maintenance hooks
// (statistics refresh/gossip, planner configuration).
#ifndef UNISTORE_CORE_UNISTORE_H_
#define UNISTORE_CORE_UNISTORE_H_

#include <memory>
#include <string>

#include "exec/executor.h"
#include "exec/query_service.h"
#include "plan/optimizer.h"
#include "pgrid/peer.h"
#include "triple/schema.h"
#include "triple/store_service.h"
#include "vql/parser.h"

namespace unistore {
namespace core {

/// Per-node configuration.
struct NodeOptions {
  plan::PlannerOptions planner;
  /// Maintain q-gram postings for string values (enables the q-gram
  /// access path of edist and CONTAINS, which the planner's
  /// qgram_postings follows; ~|value| extra index entries per triple).
  bool qgram_index = true;
  size_t qgram_q = 3;
};

/// \brief One UniStore node. Not copyable; lifetime bound to its peer.
class UniStore {
 public:
  using StatusCallback = std::function<void(Status)>;
  using ResultCallback = exec::Executor::ResultCallback;

  UniStore(pgrid::Peer* peer, NodeOptions options);

  pgrid::Peer* peer() { return peer_; }
  triple::TripleStore& store() { return store_; }
  exec::QueryService& service() { return service_; }
  triple::MappingSet& mappings() { return mappings_; }

  /// Fresh system OID ("the OID is system generated", §2), unique across
  /// nodes.
  std::string NewOid();

  // --- Writes --------------------------------------------------------------

  /// Inserts all triples of a tuple (3 index entries each + optional
  /// q-gram postings).
  void InsertTuple(const triple::Tuple& tuple, StatusCallback callback);

  /// \brief Bulk-loads a whole tuple batch in one routed BulkInsert walk
  /// (population / ingest path).
  ///
  /// All index entries (and q-gram postings) of all tuples share one
  /// version and travel as a single batch: the overlay splits it by
  /// routing hop and the owners ingest their slice via
  /// LocalStore::BulkLoad, bypassing the per-entry memtable path.
  void BulkLoadTuples(const std::vector<triple::Tuple>& tuples,
                      StatusCallback callback);

  /// Inserts one triple.
  void InsertTriple(const triple::Triple& triple, StatusCallback callback);

  /// Deletes one triple (tombstones in all indexes).
  void RemoveTriple(const triple::Triple& triple, StatusCallback callback);

  /// Declares a schema correspondence `from` <-> `to`; stored as an
  /// ordinary metadata triple (queryable) and added to the local mapping
  /// set immediately.
  void InsertMapping(const std::string& from, const std::string& to,
                     StatusCallback callback);

  /// Fetches all mapping triples from the network into the local mapping
  /// set (peers that joined later catch up on correspondences).
  void LoadMappings(StatusCallback callback);

  // --- Queries -------------------------------------------------------------

  /// Parses and runs a VQL query.
  void Query(const std::string& vql_text, ResultCallback callback);

  /// Runs an already-parsed query.
  void QueryParsed(const vql::Query& query, ResultCallback callback);

  /// Runs a pre-built physical plan (ablation benchmarks).
  void QueryPlan(const plan::PhysicalPlan& plan, ResultCallback callback);

  /// Plans a query without executing (plan inspection).
  Result<plan::PhysicalPlan> PlanOnly(const std::string& vql_text) const;

  // --- Maintenance ---------------------------------------------------------

  /// First storage I/O error of this node's local store (a disk-backed
  /// store wedges on write failure and stops persisting), or OK. Deploys
  /// should poll this: a wedged node keeps answering queries from its
  /// resident state but silently stops accepting writes.
  Status StorageStatus() const;

  /// Rebuilds local statistics (hop latency estimate feeds the cost
  /// model's latency predictions).
  void RefreshStats(double hop_latency_us);

  /// Gossips local statistics to `fanout` contacts.
  void GossipStats(size_t fanout) { service_.GossipStats(fanout); }

  /// Replaces the planner configuration (forced strategies, the Migrate
  /// shape etc.). The mapping set pointer and the q-gram flag are managed
  /// internally.
  void SetPlannerOptions(plan::PlannerOptions options);

 private:
  uint64_t NextVersion();
  // Writes the index entries of `triples` (plus their q-gram postings when
  // the q-gram index is on) under one fresh version as one batch.
  void WriteTriples(const std::vector<triple::Triple>& triples, bool deleted,
                    StatusCallback callback);

  pgrid::Peer* peer_;
  NodeOptions options_;
  triple::TripleStore store_;
  exec::QueryService service_;
  triple::MappingSet mappings_;
  std::unique_ptr<plan::Optimizer> optimizer_;
  std::unique_ptr<exec::Executor> executor_;
  triple::OidGenerator oid_generator_;
  uint64_t version_sequence_ = 0;
};

}  // namespace core
}  // namespace unistore

#endif  // UNISTORE_CORE_UNISTORE_H_
