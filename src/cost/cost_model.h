// The cost model: predicts messages / latency / transferred tuples per
// physical operator, so the optimizer can "choose concrete query plans ...
// repeatedly applied at each peer involved in a query, resulting in an
// adaptive query processing approach" (paper §2, [Karnstedt P2P'06]).
#ifndef UNISTORE_COST_COST_MODEL_H_
#define UNISTORE_COST_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "cost/stats.h"

namespace unistore {
namespace cost {

/// Predicted cost of an operator or plan. Comparable by weighted total.
struct Cost {
  double messages = 0;      ///< Total messages on the wire.
  double latency_us = 0;    ///< Critical-path virtual latency.
  double tuples_moved = 0;  ///< Entries/bindings shipped between peers.

  Cost operator+(const Cost& other) const {
    return Cost{messages + other.messages, latency_us + other.latency_us,
                tuples_moved + other.tuples_moved};
  }

  /// Scalar used for strategy comparison: latency-dominated with a message
  /// tax (keeps the network from being flooded when latencies tie).
  double Total() const { return latency_us + 50.0 * messages; }

  std::string ToString() const;
};

/// Simulated local-join compute of one Migrate visit, in microseconds: a
/// fixed overhead plus a cost per (local triple x binding) pair. The
/// executor charges it per visit, and the cost model prices Migrate with
/// it.
inline constexpr double kJoinVisitCostUs = 100.0;
inline constexpr double kJoinPairCostUs = 0.5;

/// The shape of a Migrate join: how many parallel walks split the
/// partition, and how many bindings one envelope carries. The planner owns
/// it (plan::PlannerOptions::migrate_batching); the cost model prices it
/// and the executor runs it. It lives here so the plan layer can consult
/// the cost model without depending on exec.
struct MigrateBatching {
  uint32_t fanout = 2;                      ///< Parallel sub-range walks.
  uint32_t max_bindings_per_envelope = 128;  ///< 0 = one chunk.
};

/// \brief Cost formulas for every physical strategy, parameterized by the
/// catalog's network and data statistics.
class CostModel {
 public:
  explicit CostModel(const StatsCatalog* catalog) : catalog_(catalog) {}

  /// One exact-key DHT lookup (greedy prefix routing + direct reply).
  Cost Lookup() const;

  /// Range scan touching `peers_in_range` peers, returning
  /// `expected_entries`. Sequential: leaf-to-leaf walk (latency linear in
  /// peers).
  Cost RangeScanSequential(double peers_in_range,
                           double expected_entries) const;

  /// Parallel shower over the same range: latency logarithmic, one reply
  /// message per covered peer.
  Cost RangeScanShower(double peers_in_range,
                       double expected_entries) const;

  /// Index join, probe strategy: `left_cardinality` OID lookups.
  Cost IndexJoinProbe(double left_cardinality,
                      double match_probability) const;

  /// Index join, plan-migration strategy (DESIGN.md §4): mutant query
  /// plans walk the right attribute's partition of `peers_in_range` peers
  /// carrying `left_cardinality` bindings, as `batching.fanout` parallel
  /// sub-walks over partition slices with bindings chunked into envelopes
  /// of `batching.max_bindings_per_envelope`. Every visited peer streams
  /// one partial reply and forwards before its local join, overlapping
  /// each hop's network latency with the join. `triples_per_peer` is the
  /// expected number of local triples one visit joins (8 when the catalog
  /// has no estimate).
  Cost IndexJoinMigrate(double left_cardinality, double peers_in_range,
                        const MigrateBatching& batching,
                        double triples_per_peer = 8.0) const;

  /// Similarity selection via the q-gram index: the pigeonhole-selected
  /// posting keys (k*q+1) in one key-set lookup, candidates verified
  /// locally. A substring (CONTAINS) is k = 0: one Lookup.
  Cost SimilarityQGram(double max_distance, double q,
                       double expected_candidates) const;

  /// Similarity selection by scanning the whole attribute partition:
  /// route in, then shower over it.
  Cost SimilarityNaive(double peers_in_range,
                       double attribute_triples) const;

  const StatsCatalog& catalog() const { return *catalog_; }

 private:
  const StatsCatalog* catalog_;
};

}  // namespace cost
}  // namespace unistore

#endif  // UNISTORE_COST_COST_MODEL_H_
