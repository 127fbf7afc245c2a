#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "qgram/qgram.h"
#include "triple/index.h"

namespace unistore {
namespace plan {
namespace {

// Rows an OID lookup returns: a handful of triples per tuple.
constexpr double kRowsPerOid = 3;
// Stand-in count for an attribute when the catalog knows none at all.
constexpr double kNoStatsAttributeRows = 1e6;
// Fractions of an attribute a pushed-down restriction keeps.
constexpr double kSimilaritySelectivity = 0.02;
constexpr double kRangeSelectivity = 0.3;

using algebra::LogicalOp;
using algebra::LogicalOpKind;
using algebra::LogicalPlan;
using triple::Value;

// A pattern plus the restrictions pushed into it during translation.
struct AnnotatedPattern {
  vql::TriplePattern pattern;
  Value object_lo;
  Value object_hi;
  std::string sim_target;
  size_t sim_max_distance = 0;
  std::string contains;

  // A scan takes at most one q-gram restriction.
  bool QGramFree() const { return sim_target.empty() && contains.empty(); }
};

// Recognizes `?v op literal` / `literal op ?v`; returns (var, op, literal).
struct VarCompare {
  std::string variable;
  vql::CompareOp op;
  Value literal;
};

vql::CompareOp FlipOp(vql::CompareOp op) {
  switch (op) {
    case vql::CompareOp::kLt: return vql::CompareOp::kGt;
    case vql::CompareOp::kLe: return vql::CompareOp::kGe;
    case vql::CompareOp::kGt: return vql::CompareOp::kLt;
    case vql::CompareOp::kGe: return vql::CompareOp::kLe;
    default: return op;
  }
}

std::optional<VarCompare> MatchVarCompare(const vql::Expr& expr) {
  if (expr.kind != vql::ExprKind::kCompare) return std::nullopt;
  const auto& lhs = *expr.children[0];
  const auto& rhs = *expr.children[1];
  if (lhs.kind == vql::ExprKind::kVariable &&
      rhs.kind == vql::ExprKind::kLiteral) {
    return VarCompare{lhs.variable, expr.op, rhs.literal};
  }
  if (lhs.kind == vql::ExprKind::kLiteral &&
      rhs.kind == vql::ExprKind::kVariable) {
    return VarCompare{rhs.variable, FlipOp(expr.op), lhs.literal};
  }
  return std::nullopt;
}

// Appends the conjuncts of `expr`: the operands of its top-level ANDs,
// nested ANDs flattened. OR and NOT stay whole.
void AppendConjuncts(const vql::Expr& expr,
                     std::vector<const vql::Expr*>* out) {
  if (expr.kind == vql::ExprKind::kAnd) {
    for (const auto& child : expr.children) AppendConjuncts(*child, out);
    return;
  }
  out->push_back(&expr);
}

// True iff every conjunct of `expr` is `?variable >= | <= | = literal`: a
// filter the covering range of a scan on `variable` already enforces.
bool ImpliedByRange(const vql::Expr& expr, const std::string& variable) {
  std::vector<const vql::Expr*> conjuncts;
  AppendConjuncts(expr, &conjuncts);
  for (const vql::Expr* conjunct : conjuncts) {
    auto cmp = MatchVarCompare(*conjunct);
    if (!cmp || cmp->variable != variable ||
        (cmp->op != vql::CompareOp::kGe && cmp->op != vql::CompareOp::kLe &&
         cmp->op != vql::CompareOp::kEq)) {
      return false;
    }
  }
  return true;
}

// Recognizes `edist(?v, 'target') < k` (or <=) in either argument order of
// the comparison.
struct SimRestriction {
  std::string variable;
  std::string target;
  size_t max_distance;
};

std::optional<SimRestriction> MatchSimilarity(const vql::Expr& expr) {
  if (expr.kind != vql::ExprKind::kCompare) return std::nullopt;
  if (expr.op != vql::CompareOp::kLt && expr.op != vql::CompareOp::kLe) {
    return std::nullopt;
  }
  const auto& lhs = *expr.children[0];
  const auto& rhs = *expr.children[1];
  if (lhs.kind != vql::ExprKind::kFunction || lhs.function != "edist" ||
      rhs.kind != vql::ExprKind::kLiteral || !rhs.literal.is_number()) {
    return std::nullopt;
  }
  if (lhs.children.size() != 2) return std::nullopt;
  const auto& a = *lhs.children[0];
  const auto& b = *lhs.children[1];
  std::string variable, target;
  if (a.kind == vql::ExprKind::kVariable &&
      b.kind == vql::ExprKind::kLiteral && b.literal.is_string()) {
    variable = a.variable;
    target = b.literal.AsString();
  } else if (b.kind == vql::ExprKind::kVariable &&
             a.kind == vql::ExprKind::kLiteral && a.literal.is_string()) {
    variable = b.variable;
    target = a.literal.AsString();
  } else {
    return std::nullopt;
  }
  int64_t bound = rhs.literal.AsInt();
  if (expr.op == vql::CompareOp::kLt) bound -= 1;  // edist < k  ==  <= k-1
  if (bound < 0) return std::nullopt;
  return SimRestriction{std::move(variable), std::move(target),
                        static_cast<size_t>(bound)};
}

// Recognizes `?v CONTAINS 'needle'` with a needle of at least q
// characters: only such a needle has a gram inside it to look up.
std::optional<VarCompare> MatchContains(const vql::Expr& expr) {
  if (expr.kind != vql::ExprKind::kCompare ||
      expr.op != vql::CompareOp::kContains) {
    return std::nullopt;
  }
  const auto& lhs = *expr.children[0];
  const auto& rhs = *expr.children[1];
  if (lhs.kind != vql::ExprKind::kVariable ||
      rhs.kind != vql::ExprKind::kLiteral || !rhs.literal.is_string() ||
      rhs.literal.AsString().size() < qgram::kDefaultQ) {
    return std::nullopt;
  }
  return VarCompare{lhs.variable, expr.op, rhs.literal};
}

bool SharesVariable(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  return !algebra::SharedVariables(a, b).empty();
}

// Appends the variables of `vars` not yet in `bound`.
void AddVariables(const std::vector<std::string>& vars,
                  std::vector<std::string>* bound) {
  for (const auto& v : vars) {
    if (std::find(bound->begin(), bound->end(), v) == bound->end()) {
      bound->push_back(v);
    }
  }
}

}  // namespace

Optimizer::Optimizer(const cost::StatsCatalog* catalog,
                     PlannerOptions options)
    : catalog_(catalog), cost_model_(catalog), options_(options) {}

Result<algebra::LogicalPlan> Optimizer::Translate(
    const vql::Query& query) const {
  if (query.patterns.empty()) {
    return Status::InvalidArgument("query has no triple patterns");
  }

  // 1. Annotate patterns with pushed-down restrictions. The original
  // filters are all kept as residual predicates: pushdowns only *narrow*
  // what the scans fetch, the residuals guarantee exact semantics (e.g.
  // strict '<' over a non-strict covering range).
  std::vector<AnnotatedPattern> annotated;
  annotated.reserve(query.patterns.size());
  for (const auto& p : query.patterns) {
    AnnotatedPattern ap;
    ap.pattern = p;
    annotated.push_back(std::move(ap));
  }
  auto find_object_pattern = [&annotated](const std::string& var) -> int {
    for (size_t i = 0; i < annotated.size(); ++i) {
      const auto& p = annotated[i].pattern;
      if (p.object.is_variable && p.object.variable == var &&
          !p.predicate.is_variable) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  std::vector<const vql::Expr*> conjuncts;
  for (const auto& filter : query.filters) AppendConjuncts(*filter, &conjuncts);
  for (const vql::Expr* conjunct : conjuncts) {
    if (auto sim = MatchSimilarity(*conjunct)) {
      int idx = find_object_pattern(sim->variable);
      if (idx >= 0 && annotated[static_cast<size_t>(idx)].QGramFree()) {
        annotated[static_cast<size_t>(idx)].sim_target = sim->target;
        annotated[static_cast<size_t>(idx)].sim_max_distance =
            sim->max_distance;
        continue;
      }
    }
    if (auto needle = MatchContains(*conjunct)) {
      int idx = find_object_pattern(needle->variable);
      if (idx >= 0 && annotated[static_cast<size_t>(idx)].QGramFree()) {
        annotated[static_cast<size_t>(idx)].contains =
            needle->literal.AsString();
      }
      continue;
    }
    if (auto cmp = MatchVarCompare(*conjunct)) {
      int idx = find_object_pattern(cmp->variable);
      if (idx >= 0) {
        auto& ap = annotated[static_cast<size_t>(idx)];
        switch (cmp->op) {
          case vql::CompareOp::kEq:
            if (ap.object_lo.is_null() || cmp->literal > ap.object_lo) {
              ap.object_lo = cmp->literal;
            }
            if (ap.object_hi.is_null() || cmp->literal < ap.object_hi) {
              ap.object_hi = cmp->literal;
            }
            break;
          case vql::CompareOp::kLt:
          case vql::CompareOp::kLe:
            if (ap.object_hi.is_null() || cmp->literal < ap.object_hi) {
              ap.object_hi = cmp->literal;
            }
            break;
          case vql::CompareOp::kGt:
          case vql::CompareOp::kGe:
            if (ap.object_lo.is_null() || cmp->literal > ap.object_lo) {
              ap.object_lo = cmp->literal;
            }
            break;
          default:
            break;
        }
      }
    }
  }

  // 2. Greedy join order: cheapest (estimated) pattern first, then always
  // the cheapest pattern connected to the bound variables, each candidate
  // scored with those variables bound (a bound subject is an OID lookup, a
  // bound object under a literal attribute an A#v lookup).
  auto make_scan = [](const AnnotatedPattern& ap) {
    LogicalPlan scan = algebra::MakePatternScan(ap.pattern);
    scan->object_lo = ap.object_lo;
    scan->object_hi = ap.object_hi;
    scan->sim_target = ap.sim_target;
    scan->sim_max_distance = ap.sim_max_distance;
    scan->contains = ap.contains;
    return scan;
  };

  std::vector<LogicalPlan> scans;
  scans.reserve(annotated.size());
  for (const auto& ap : annotated) scans.push_back(make_scan(ap));

  std::vector<bool> used(scans.size(), false);
  std::vector<std::string> bound;
  auto cheapest = [this, &scans, &used, &bound](bool connected) -> int {
    int best = -1;
    double best_cost = 0;
    for (size_t i = 0; i < scans.size(); ++i) {
      if (used[i]) continue;
      if (connected && !SharesVariable(bound, scans[i]->OutputVariables())) {
        continue;
      }
      double cost = EstimateScanCardinality(*scans[i], bound);
      if (best < 0 || cost < best_cost) {
        best = static_cast<int>(i);
        best_cost = cost;
      }
    }
    return best;
  };

  LogicalPlan root;
  for (size_t step = 0; step < scans.size(); ++step) {
    int next = cheapest(/*connected=*/step > 0);
    if (next < 0) next = cheapest(/*connected=*/false);  // Cartesian.
    UNISTORE_CHECK(next >= 0);
    used[static_cast<size_t>(next)] = true;
    LogicalPlan scan = scans[static_cast<size_t>(next)];
    AddVariables(scan->OutputVariables(), &bound);
    root = root ? algebra::MakeJoin(std::move(root), std::move(scan))
                : std::move(scan);
  }

  // 3. Residual filters (all of them — see above).
  for (const auto& filter : query.filters) {
    root = algebra::MakeFilter(filter, std::move(root));
  }

  // 4. Ranking / ordering.
  if (!query.skyline.empty()) {
    root = algebra::MakeSkyline(query.skyline, std::move(root));
    if (query.limit.has_value()) {
      root = algebra::MakeLimit(*query.limit, std::move(root));
    }
  } else if (!query.order_by.empty()) {
    if (query.limit.has_value()) {
      root = algebra::MakeTopN(query.order_by, *query.limit,
                               std::move(root));
    } else {
      root = algebra::MakeOrderBy(query.order_by, std::move(root));
    }
  } else if (query.limit.has_value()) {
    root = algebra::MakeLimit(*query.limit, std::move(root));
  }

  // 5. Projection.
  std::vector<std::string> columns =
      query.select_all ? bound : query.select;
  root = algebra::MakeProject(std::move(columns), std::move(root));
  return root;
}

double Optimizer::EstimateScanCardinality(
    const algebra::LogicalOp& scan,
    const std::vector<std::string>& bound) const {
  const auto& p = scan.pattern;
  auto is_bound = [&bound](const vql::Term& term) {
    return !term.is_variable || std::find(bound.begin(), bound.end(),
                                          term.variable) != bound.end();
  };
  const uint64_t known_triples = catalog_->TotalTriples();
  const double total = std::max<double>(1, known_triples);
  if (is_bound(p.subject)) return kRowsPerOid;
  if (p.predicate.is_variable) {
    if (is_bound(p.object)) return std::max(2.0, total / 1000);
    return total;
  }
  const std::string& attr = p.predicate.literal.AsString();
  const cost::AttrStats stats = catalog_->Attribute(attr);
  const bool known = stats.triple_count > 0;
  if (is_bound(p.object)) {
    // An A#v lookup: rows per distinct value, at least one.
    if (!known) return 1;
    double distinct = std::max<double>(1, stats.distinct_values);
    return std::max(1.0, static_cast<double>(stats.triple_count) / distinct);
  }
  // An attribute the catalog has not seen counts as the mean known one, at
  // least an OID lookup; with none known, it ranks after every bound or
  // restricted pattern.
  double count = static_cast<double>(stats.triple_count);
  if (!known) {
    count = known_triples == 0
                ? kNoStatsAttributeRows
                : std::max(kRowsPerOid,
                           total / static_cast<double>(
                                       catalog_->attribute_count()));
  }
  if (!scan.sim_target.empty() || !scan.contains.empty()) {
    return std::max(1.0, kSimilaritySelectivity * count);
  }
  if (!scan.object_lo.is_null() || !scan.object_hi.is_null()) {
    if (known && (scan.object_lo.is_number() || scan.object_hi.is_number())) {
      double lo = scan.object_lo.is_null() ? -1e300
                                           : scan.object_lo.AsDouble();
      double hi = scan.object_hi.is_null() ? 1e300
                                           : scan.object_hi.AsDouble();
      return std::max(1.0,
                      catalog_->EstimateRangeSelectivity(attr, lo, hi) *
                          count);
    }
    return std::max(1.0, kRangeSelectivity * count);
  }
  return count;
}

double Optimizer::EstimateRows(const algebra::LogicalOp& op,
                               std::vector<std::string>* bound) const {
  switch (op.kind) {
    case LogicalOpKind::kPatternScan: {
      const double rows = EstimateScanCardinality(op, *bound);
      AddVariables(op.OutputVariables(), bound);
      return rows;
    }
    case LogicalOpKind::kJoin: {
      const double left = EstimateRows(*op.children[0], bound);
      return left * EstimateRows(*op.children[1], bound);
    }
    default:
      return 10;
  }
}

double Optimizer::EstimateScanPeers(const algebra::LogicalOp& scan) const {
  const auto& p = scan.pattern;
  if (p.predicate.is_variable) {
    // Whole A#v index.
    return catalog_->EstimatePeersInRange(pgrid::PrefixRange("a#"));
  }
  const std::string& attr = p.predicate.literal.AsString();
  pgrid::KeyRange range =
      triple::AttrValueRange(attr, scan.object_lo, scan.object_hi);
  return catalog_->EstimatePeersInRange(range);
}

triple::RangeStrategy Optimizer::ChooseRangeStrategy(
    double peers_in_range, double expected_entries) const {
  if (options_.force_range_strategy.has_value()) {
    return *options_.force_range_strategy;
  }
  cost::Cost seq = cost_model_.RangeScanSequential(peers_in_range,
                                                   expected_entries);
  cost::Cost shower = cost_model_.RangeScanShower(peers_in_range,
                                                  expected_entries);
  return seq.Total() <= shower.Total() ? triple::RangeStrategy::kSequential
                                       : triple::RangeStrategy::kShower;
}

JoinStrategy Optimizer::ChooseJoinStrategy(
    double left_cardinality, const vql::TriplePattern& right) const {
  if (options_.force_join_strategy.has_value()) {
    return *options_.force_join_strategy;
  }
  // Probe requires the right subject (or object) to become bound per left
  // binding; migrate requires a literal right attribute to walk.
  if (right.predicate.is_variable) return JoinStrategy::kProbe;
  const std::string& attr = right.predicate.literal.AsString();
  double peers =
      catalog_->EstimatePeersInRange(triple::AttrRange(attr));
  cost::Cost probe = cost_model_.IndexJoinProbe(left_cardinality, 0.5);
  // Price Migrate as the batched executor will actually run it, with the
  // catalog's estimate of local triples joined per visited peer.
  cost::MigrateBatching batching = options_.migrate_batching;
  const auto& stats = catalog_->Attribute(attr);
  if (stats.triple_count > 0 && peers > 0) {
    batching.triples_per_peer =
        static_cast<double>(stats.triple_count) / std::max(1.0, peers);
  }
  cost::Cost migrate =
      cost_model_.IndexJoinMigrate(left_cardinality, peers, batching);
  return probe.Total() <= migrate.Total() ? JoinStrategy::kProbe
                                          : JoinStrategy::kMigrate;
}

PhysicalPlan Optimizer::PhysicalizeScan(const algebra::LogicalOp& scan) const {
  auto op = std::make_shared<PhysicalOp>();
  op->kind = LogicalOpKind::kPatternScan;
  op->pattern = scan.pattern;
  op->object_lo = scan.object_lo;
  op->object_hi = scan.object_hi;
  op->sim_target = scan.sim_target;
  op->sim_max_distance = scan.sim_max_distance;
  op->contains = scan.contains;

  const auto& p = scan.pattern;
  if (!p.predicate.is_variable) {
    const std::string attr = p.predicate.literal.AsString();
    op->attributes = {attr};
    if (options_.apply_mappings && options_.mappings != nullptr) {
      op->attributes = options_.mappings->Equivalents(attr);
    }
  }

  const double cardinality = EstimateScanCardinality(scan);
  const double peers_in_range = EstimateScanPeers(scan);

  if (!p.subject.is_variable) {
    op->access = AccessPath::kOidLookup;
    op->estimated_cost = cost_model_.Lookup();
  } else if (!p.predicate.is_variable) {
    if (!scan.sim_target.empty() || !scan.contains.empty()) {
      // Cost-based q-gram vs naive similarity; a substring is the
      // zero-edit case, one posting lookup. The q-gram path needs
      // postings, keys that tell the grams apart, and a gram set that
      // serves the restriction.
      const bool qgram_feasible = options_.qgram_postings &&
                                  op->PostingKeysPerGram() &&
                                  !op->PostingGrams().empty();
      const auto stats = catalog_->Attribute(p.predicate.literal.AsString());
      const cost::Cost qg = cost_model_.SimilarityQGram(
          static_cast<double>(scan.sim_max_distance),
          static_cast<double>(qgram::kDefaultQ), cardinality);
      const cost::Cost naive = cost_model_.SimilarityNaive(
          peers_in_range, static_cast<double>(stats.triple_count));
      if (options_.force_similarity_path.has_value()) {
        op->access = *options_.force_similarity_path;
      } else {
        op->access = qgram_feasible && qg.Total() <= naive.Total()
                         ? AccessPath::kSimilarityQGram
                         : AccessPath::kSimilarityNaive;
      }
      op->range_strategy = triple::RangeStrategy::kShower;
      op->estimated_cost =
          op->access == AccessPath::kSimilarityQGram ? qg : naive;
    } else if (!p.object.is_variable) {
      op->access = AccessPath::kAttrValueLookup;
      op->estimated_cost = cost_model_.Lookup();
    } else {
      op->access = AccessPath::kAttrRangeScan;
      op->range_strategy = ChooseRangeStrategy(peers_in_range, cardinality);
      op->estimated_cost =
          op->range_strategy == triple::RangeStrategy::kSequential
              ? cost_model_.RangeScanSequential(peers_in_range, cardinality)
              : cost_model_.RangeScanShower(peers_in_range, cardinality);
    }
  } else if (!p.object.is_variable) {
    op->access = AccessPath::kValueLookup;
    op->estimated_cost = cost_model_.Lookup();
  } else {
    op->access = AccessPath::kFullScan;
    op->range_strategy = triple::RangeStrategy::kShower;
    op->estimated_cost =
        cost_model_.RangeScanShower(peers_in_range, cardinality);
  }
  return op;
}

PhysicalPlan Optimizer::Physicalize(const algebra::LogicalPlan& logical) const {
  if (logical->kind == LogicalOpKind::kPatternScan) {
    return PhysicalizeScan(*logical);
  }
  auto op = std::make_shared<PhysicalOp>();
  op->kind = logical->kind;
  op->predicate = logical->predicate;
  op->columns = logical->columns;
  op->order_keys = logical->order_keys;
  op->skyline_keys = logical->skyline_keys;
  op->limit = logical->limit;
  for (const auto& child : logical->children) {
    op->children.push_back(Physicalize(child));
  }

  if (op->kind == LogicalOpKind::kJoin) {
    op->adaptive = !options_.force_join_strategy.has_value();
    // A static estimate; the executor re-decides from the actual rows.
    std::vector<std::string> bound;
    op->join_strategy = ChooseJoinStrategy(
        EstimateRows(*logical->children[0], &bound), op->children[1]->pattern);
  }

  // Top-N pushdown: ORDER BY ?v ASC LIMIT n over an attribute range scan
  // of ?v becomes an early-terminating ordered walk. Filters in between
  // must be implied by the scan's covering range (non-strict bounds or
  // equality on ?v), so they drop nothing the scan itself keeps.
  if (op->kind == LogicalOpKind::kTopN && options_.enable_topn_pushdown &&
      op->order_keys.size() == 1 &&
      op->order_keys[0].direction == vql::SortDirection::kAsc &&
      op->limit.has_value() && !op->children.empty()) {
    const std::string& variable = op->order_keys[0].variable;
    PhysicalOp* child = op->children[0].get();
    while (child->kind == LogicalOpKind::kFilter &&
           ImpliedByRange(*child->predicate, variable)) {
      child = child->children[0].get();
    }
    if (child->kind == LogicalOpKind::kPatternScan &&
        child->access == AccessPath::kAttrRangeScan &&
        child->pattern.object.is_variable &&
        child->pattern.object.variable == variable) {
      child->scan_limit = static_cast<uint32_t>(*op->limit);
      child->range_strategy = triple::RangeStrategy::kSequential;
    }
  }
  return op;
}

Result<PhysicalPlan> Optimizer::Plan(const vql::Query& query) const {
  UNISTORE_ASSIGN_OR_RETURN(algebra::LogicalPlan logical, Translate(query));
  return Physicalize(logical);
}

}  // namespace plan
}  // namespace unistore
