// The query optimizer: VQL AST -> logical plan -> physical plan.
//
// Responsibilities (paper §2):
//  * schema-independent translation of triple patterns,
//  * filter pushdown (ranges, edist similarity and CONTAINS into scans),
//  * greedy selectivity-based join ordering, each candidate scored with
//    the variables bound so far (DESIGN.md §12),
//  * cost-based choice among physical implementations (index access paths,
//    sequential vs shower ranges, probe vs migrate joins, q-gram vs naive
//    similarity and substring search),
//  * adaptive re-decisions at runtime (ChooseJoinStrategy is re-invoked by
//    the executor once actual cardinalities are known),
//  * optional automatic application of schema mappings.
#ifndef UNISTORE_PLAN_OPTIMIZER_H_
#define UNISTORE_PLAN_OPTIMIZER_H_

#include <optional>

#include "algebra/logical.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "plan/physical.h"
#include "triple/schema.h"
#include "vql/ast.h"

namespace unistore {
namespace plan {

/// Optimizer knobs; the `force_*` overrides exist for the ablation
/// benchmarks ("we will execute identical queries ... while influencing
/// the integrated optimizer", paper §4).
struct PlannerOptions {
  std::optional<triple::RangeStrategy> force_range_strategy;
  std::optional<JoinStrategy> force_join_strategy;
  /// The shape of every Migrate join (fan-out, binding chunks): the cost
  /// model prices the Migrate strategy with it, and the executor runs each
  /// Migrate join with it.
  cost::MigrateBatching migrate_batching;
  /// Force similarity path: kSimilarityQGram or kSimilarityNaive.
  std::optional<AccessPath> force_similarity_path;
  /// Whether the nodes keep q-gram postings; without them no plan chooses
  /// the q-gram path. core::UniStore derives it from
  /// NodeOptions::qgram_index.
  bool qgram_postings = true;
  bool enable_topn_pushdown = true;
  /// Expand literal attributes with their correspondence classes.
  bool apply_mappings = false;
  const triple::MappingSet* mappings = nullptr;
};

class Optimizer {
 public:
  Optimizer(const cost::StatsCatalog* catalog, PlannerOptions options);

  /// Full pipeline: parse-tree -> physical plan.
  Result<PhysicalPlan> Plan(const vql::Query& query) const;

  /// Translation + rewrites only (exposed for tests/inspection).
  Result<algebra::LogicalPlan> Translate(const vql::Query& query) const;

  /// Cost-based strategy for a join with `left_cardinality` bindings
  /// against `right` (re-invoked adaptively by the executor).
  JoinStrategy ChooseJoinStrategy(double left_cardinality,
                                  const vql::TriplePattern& right) const;

  /// Cost-based range strategy for a scan touching `peers_in_range`
  /// peers.
  triple::RangeStrategy ChooseRangeStrategy(double peers_in_range,
                                            double expected_entries) const;

  const cost::CostModel& cost_model() const { return cost_model_; }
  const PlannerOptions& options() const { return options_; }

 private:
  PhysicalPlan Physicalize(const algebra::LogicalPlan& logical) const;
  PhysicalPlan PhysicalizeScan(const algebra::LogicalOp& scan) const;
  /// Rows `scan` yields per binding of the `bound` variables (literal
  /// positions count as bound).
  double EstimateScanCardinality(
      const algebra::LogicalOp& scan,
      const std::vector<std::string>& bound = {}) const;
  /// Rows of a left-deep join subtree: each scan per binding of the
  /// variables the scans before it bound (collected in `bound`).
  double EstimateRows(const algebra::LogicalOp& op,
                      std::vector<std::string>* bound) const;
  /// Peers hosting the scan's key region (peer-path sample estimate).
  double EstimateScanPeers(const algebra::LogicalOp& scan) const;

  const cost::StatsCatalog* catalog_;
  cost::CostModel cost_model_;
  PlannerOptions options_;
};

}  // namespace plan
}  // namespace unistore

#endif  // UNISTORE_PLAN_OPTIMIZER_H_
