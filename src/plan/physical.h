// Physical plans: logical operators annotated with access paths and
// execution strategies ("for each logical operator there are several
// physical implementations available ... they differ in the kind of used
// indexes, applied routing strategy, parallelism, etc." — paper §2).
#ifndef UNISTORE_PLAN_PHYSICAL_H_
#define UNISTORE_PLAN_PHYSICAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/logical.h"
#include "cost/cost_model.h"
#include "triple/store_service.h"
#include "vql/ast.h"

namespace unistore {
namespace plan {

/// How a pattern scan reaches its triples.
enum class AccessPath : uint8_t {
  kOidLookup,        ///< Subject literal: one OID-index lookup.
  kAttrValueLookup,  ///< Attribute+object literals: one A#v lookup.
  kAttrRangeScan,    ///< Attribute literal: A#v partition (range) scan.
  kValueLookup,      ///< Object literal, attribute free: value index.
  kFullScan,         ///< Everything else: scan the whole A#v index.
  kSimilarityQGram,  ///< edist or CONTAINS pushdown via the q-gram index.
  kSimilarityNaive,  ///< edist or CONTAINS pushdown via full attribute scan.
};

std::string_view AccessPathName(AccessPath path);

/// How a join consumes its right side.
enum class JoinStrategy : uint8_t {
  kProbe,      ///< Per-left-binding index lookups.
  kMigrate,    ///< Mutant-query-plan envelope walks the right partition.
  kLocalHash,  ///< Fetch the right side entirely, join at the initiator.
};

std::string_view JoinStrategyName(JoinStrategy strategy);

/// \brief A node of the physical plan.
struct PhysicalOp {
  algebra::LogicalOpKind kind;

  // -- kPatternScan annotations --
  vql::TriplePattern pattern;
  /// Attributes to scan: the pattern's literal attribute plus, when schema
  /// mappings are enabled, its correspondence class (paper §2: metadata
  /// applied "automatically by the system").
  std::vector<std::string> attributes;
  AccessPath access = AccessPath::kFullScan;
  triple::RangeStrategy range_strategy = triple::RangeStrategy::kShower;
  triple::Value object_lo;
  triple::Value object_hi;
  std::string sim_target;
  size_t sim_max_distance = 0;
  std::string contains;
  /// Ordered-walk early termination (top-N pushdown; 0 = none).
  uint32_t scan_limit = 0;

  // -- kJoin annotations --
  JoinStrategy join_strategy = JoinStrategy::kProbe;
  /// Re-decide the strategy at runtime from the actual left cardinality
  /// (the paper's adaptive, repeatedly-applied optimization).
  bool adaptive = true;

  // -- other operators --
  vql::ExprPtr predicate;
  std::vector<std::string> columns;
  std::vector<vql::OrderKey> order_keys;
  std::vector<vql::SkylineKey> skyline_keys;
  std::optional<uint64_t> limit;

  cost::Cost estimated_cost;

  std::vector<std::shared_ptr<PhysicalOp>> children;

  /// The grams the q-gram path looks up for this scan's restriction:
  /// edist <= k needs grams covering k*q+1 positions, CONTAINS is the
  /// k = 0 case over the grams inside the needle. Empty when no gram set
  /// can serve the restriction (qgram::SelectGrams).
  std::vector<std::string> PostingGrams() const;

  /// True iff every scanned attribute has posting keys of its own per gram
  /// (qgram::GramsHaveOwnKeys); otherwise it has no postings to look up.
  bool PostingKeysPerGram() const;

  /// Indented plan rendering including annotations (shown in results'
  /// ExecStats and golden-tested).
  std::string ToString(int indent = 0) const;
};

using PhysicalPlan = std::shared_ptr<PhysicalOp>;

}  // namespace plan
}  // namespace unistore

#endif  // UNISTORE_PLAN_PHYSICAL_H_
