// Logical algebra over the triple storage (paper §2: "we propose ... an
// according logical algebra [supporting] traditional 'relational' operators
// as well as special operators needed to query the distributed triple
// storage ... similarity operators and ranking operators (top-N, skyline)").
#ifndef UNISTORE_ALGEBRA_LOGICAL_H_
#define UNISTORE_ALGEBRA_LOGICAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vql/ast.h"

namespace unistore {
namespace algebra {

enum class LogicalOpKind : uint8_t {
  kPatternScan,  ///< Produce bindings of one triple pattern.
  kJoin,         ///< Natural join of two inputs on shared variables.
  kFilter,       ///< σ: keep bindings satisfying a predicate.
  kProject,      ///< π: keep a subset of variables.
  kOrderBy,      ///< Sort.
  kTopN,         ///< Sort + cut (ranking operator).
  kSkyline,      ///< Pareto-optimal set (ranking operator).
  kLimit,        ///< Cut without sort.
};

std::string LogicalOpKindName(LogicalOpKind kind);

/// \brief A node of the logical plan tree.
///
/// A deliberately plain struct (per-kind fields; unused ones empty): plans
/// are built by the translator, rewritten by the optimizer and printed for
/// tests — a closed sum type with a uniform printer serves that best.
struct LogicalOp {
  LogicalOpKind kind;

  // kPatternScan
  vql::TriplePattern pattern;
  /// Residual value restriction pushed into the scan: object in [lo, hi]
  /// (null = open). Only meaningful when the object is a variable.
  triple::Value object_lo;
  triple::Value object_hi;
  /// Similarity restriction pushed into the scan: edist(object, target)
  /// <= max_distance (empty target = none). Paper §2's edist FILTER.
  std::string sim_target;
  size_t sim_max_distance = 0;
  /// Substring restriction pushed into the scan: object CONTAINS contains
  /// (empty = none). A scan carries at most one of sim_target, contains.
  std::string contains;

  // kFilter
  vql::ExprPtr predicate;

  // kProject
  std::vector<std::string> columns;

  // kOrderBy / kTopN
  std::vector<vql::OrderKey> order_keys;

  // kTopN / kLimit
  std::optional<uint64_t> limit;

  // kSkyline
  std::vector<vql::SkylineKey> skyline_keys;

  std::vector<std::shared_ptr<LogicalOp>> children;

  /// Variables produced by this node.
  std::vector<std::string> OutputVariables() const;

  /// Multi-line indented plan rendering (golden-tested).
  std::string ToString(int indent = 0) const;
};

using LogicalPlan = std::shared_ptr<LogicalOp>;

/// Variables bound by a single pattern.
std::vector<std::string> PatternVariables(const vql::TriplePattern& pattern);

/// The variables shared between two variable sets (join keys).
std::vector<std::string> SharedVariables(const std::vector<std::string>& a,
                                         const std::vector<std::string>& b);

// --- Constructors -----------------------------------------------------------

LogicalPlan MakePatternScan(vql::TriplePattern pattern);
LogicalPlan MakeJoin(LogicalPlan left, LogicalPlan right);
LogicalPlan MakeFilter(vql::ExprPtr predicate, LogicalPlan input);
LogicalPlan MakeProject(std::vector<std::string> columns, LogicalPlan input);
LogicalPlan MakeOrderBy(std::vector<vql::OrderKey> keys, LogicalPlan input);
LogicalPlan MakeTopN(std::vector<vql::OrderKey> keys, uint64_t n,
                     LogicalPlan input);
LogicalPlan MakeSkyline(std::vector<vql::SkylineKey> keys, LogicalPlan input);
LogicalPlan MakeLimit(uint64_t n, LogicalPlan input);

}  // namespace algebra
}  // namespace unistore

#endif  // UNISTORE_ALGEBRA_LOGICAL_H_
