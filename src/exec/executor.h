// The distributed query executor.
//
// Evaluates a physical plan from one initiating peer: pattern scans run as
// overlay operations (lookups, range scans, q-gram similarity, shower
// multicasts), joins run as parallel index probes or as mutant-query-plan
// envelopes (Migrate), and the local operators (filter, project, ranking)
// run over the collected bindings. Join strategies are re-decided
// adaptively once actual cardinalities are known.
#ifndef UNISTORE_EXEC_EXECUTOR_H_
#define UNISTORE_EXEC_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/binding.h"
#include "exec/query_service.h"
#include "plan/optimizer.h"
#include "plan/physical.h"
#include "triple/store_service.h"
#include "vql/ast.h"

namespace unistore {
namespace exec {

/// The answer to a VQL query.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Binding> rows;
  /// The physical plan that produced the result (annotated strategies).
  std::string plan_text;
  /// Operator-level execution trace: one line per completed operator with
  /// its output cardinality and runtime decisions (adaptive strategy
  /// switches, fallbacks). The paper's §3 traceability claim: "results
  /// are traceable, analyzable and (in limits) repeatable".
  std::vector<std::string> trace;
  /// Uncovered key intervals [lo_bits, hi_bits] of the walks its Migrate
  /// joins abandoned once their retries or the join deadline ran out: the
  /// rows miss whatever lies there. Sorted; empty when the result is
  /// complete.
  std::vector<std::pair<std::string, std::string>> coverage_gaps;

  /// Fixed-width text table (examples / demos).
  std::string ToTable() const;
};

/// \brief Executes physical plans on behalf of one peer.
class Executor {
 public:
  using ResultCallback = std::function<void(Result<QueryResult>)>;
  using RowsCallback = std::function<void(Result<std::vector<Binding>>)>;

  Executor(triple::TripleStore* store, QueryService* service,
           const plan::Optimizer* optimizer);

  /// Plans and runs `query`.
  void Execute(const vql::Query& query, ResultCallback callback);

  /// Runs a pre-built plan (ablation benchmarks force strategies).
  void ExecutePlan(const plan::PhysicalPlan& plan, ResultCallback callback);

 private:
  /// Per-query state shared by every operator of one plan execution: the
  /// trace and the probe joins' index-key memo (executor.cc).
  struct QueryContext;
  using Context = std::shared_ptr<QueryContext>;
  /// One memoized index key and suffix set: the triples a single lookup
  /// of it returned.
  struct KeyAnswer;

  void ExecNode(std::shared_ptr<plan::PhysicalOp> node, Context ctx,
                RowsCallback callback);
  void ExecScan(std::shared_ptr<plan::PhysicalOp> node, Context ctx,
                RowsCallback callback);
  void ExecJoin(std::shared_ptr<plan::PhysicalOp> node, Context ctx,
                RowsCallback callback);
  /// Index-probe join: every left row binds the right pattern's subject
  /// (OID lookup) or, `by_subject` false, its object under a literal
  /// attribute (A#v lookup); rows sharing an index key share one lookup.
  void ExecProbeJoin(std::shared_ptr<plan::PhysicalOp> node,
                     std::vector<Binding> left, bool by_subject, Context ctx,
                     RowsCallback callback);
  void ExecLocalHashJoin(std::shared_ptr<plan::PhysicalOp> node,
                         std::vector<Binding> left, Context ctx,
                         RowsCallback callback);
  void ExecSimilarityQGram(std::shared_ptr<plan::PhysicalOp> node,
                           Context ctx, RowsCallback callback);

  /// Hands `ready` the answer for each of `keys`: keys whose suffix set
  /// is already in the query's memo read or wait for it, the rest are
  /// looked up together in one key-set lookup (TripleStore::GetByKeys).
  void FetchKeys(const Context& ctx, const pgrid::KeySuffixes& keys,
                 std::function<void(const pgrid::Key&, KeyAnswer&)> ready);

  triple::TripleStore* store_;
  QueryService* service_;
  const plan::Optimizer* optimizer_;
};

/// Skyline dominance: true iff `a` dominates `b` under `keys` (no worse in
/// every dimension, strictly better in at least one). Bindings missing a
/// dimension are incomparable.
bool Dominates(const Binding& a, const Binding& b,
               const std::vector<vql::SkylineKey>& keys);

/// Block-nested-loop skyline of `rows`.
std::vector<Binding> SkylineOf(std::vector<Binding> rows,
                               const std::vector<vql::SkylineKey>& keys);

/// Sorts rows by the given keys (stable; missing values sort first).
void SortRows(std::vector<Binding>* rows,
              const std::vector<vql::OrderKey>& keys);

}  // namespace exec
}  // namespace unistore

#endif  // UNISTORE_EXEC_EXECUTOR_H_
