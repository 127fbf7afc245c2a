#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/expr_eval.h"
#include "qgram/qgram.h"
#include "triple/index.h"

namespace unistore {
namespace exec {
namespace {

using plan::AccessPath;
using plan::JoinStrategy;
using plan::PhysicalOp;
using triple::Triple;
using triple::Value;

// Fan-in accumulator for N parallel triple fetches.
struct TripleFanIn {
  size_t remaining;
  Status first_error;
  std::vector<Triple> triples;
  std::function<void(Result<std::vector<Triple>>)> done;

  void Arrive(Result<std::vector<Triple>> result) {
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
    } else {
      triples.insert(triples.end(),
                     std::make_move_iterator(result->begin()),
                     std::make_move_iterator(result->end()));
    }
    if (--remaining == 0) {
      if (!first_error.ok()) {
        done(first_error);
      } else {
        done(std::move(triples));
      }
    }
  }
};

std::string JoinKeyOf(const Binding& row,
                      const std::vector<std::string>& vars) {
  std::string key;
  for (const auto& v : vars) {
    auto it = row.find(v);
    key += (it == row.end()) ? std::string("\x01")
                             : it->second.ToIndexString();
    key.push_back('\x1F');
  }
  return key;
}

// Binds one triple to `scan`'s pattern under `base`, appending the row to
// `rows` when it matches. With mapping expansion (more than one attribute)
// a triple matches if its attribute is any of them; the pattern's literal
// attribute is substituted accordingly.
void BindTriple(const PhysicalOp& scan, const Triple& t, const Binding& base,
                std::vector<Binding>* rows) {
  const vql::TriplePattern* pattern = &scan.pattern;
  vql::TriplePattern rewritten;
  if (!scan.pattern.predicate.is_variable && scan.attributes.size() > 1) {
    if (std::find(scan.attributes.begin(), scan.attributes.end(),
                  t.attribute) == scan.attributes.end()) {
      return;
    }
    rewritten = scan.pattern;
    rewritten.predicate = vql::Term::Lit(Value::String(t.attribute));
    pattern = &rewritten;
  }
  auto binding = MatchPattern(*pattern, t.oid, t.attribute, t.value, base);
  if (!binding.has_value()) return;
  // Residual scan restrictions (covering ranges are post-filtered here;
  // similarity is verified exactly).
  if (pattern->object.is_variable) {
    const Value& v = binding->at(pattern->object.variable);
    if (!scan.object_lo.is_null() && v < scan.object_lo) return;
    if (!scan.object_hi.is_null() && v > scan.object_hi) return;
    if (!scan.sim_target.empty()) {
      if (!v.is_string()) return;
      if (BoundedEditDistance(v.AsString(), scan.sim_target,
                              scan.sim_max_distance) >
          scan.sim_max_distance) {
        return;
      }
    }
  }
  rows->push_back(std::move(*binding));
}

// Converts triples to pattern bindings (see BindTriple).
std::vector<Binding> BindTriples(const PhysicalOp& scan,
                                 const std::vector<Triple>& triples,
                                 const Binding& base) {
  std::vector<Binding> rows;
  rows.reserve(triples.size());
  for (const Triple& t : triples) BindTriple(scan, t, base, &rows);
  return rows;
}

// The pattern position a probe join binds from each left row: the subject
// (OID lookup) or, under a literal attribute, the object (A#v lookup).
enum class ProbeBy { kNone, kSubject, kObject };

ProbeBy ProbeSideOf(const PhysicalOp& right, const Binding& row) {
  if (right.kind != algebra::LogicalOpKind::kPatternScan) {
    return ProbeBy::kNone;
  }
  auto bound = [&row](const vql::Term& term) {
    return !term.is_variable || row.count(term.variable) > 0;
  };
  if (bound(right.pattern.subject)) return ProbeBy::kSubject;
  if (!right.pattern.predicate.is_variable && bound(right.pattern.object)) {
    return ProbeBy::kObject;
  }
  return ProbeBy::kNone;
}

}  // namespace

struct Executor::KeyAnswer {
  bool done = false;
  Status status;
  std::vector<Triple> triples;
  std::vector<std::function<void(KeyAnswer&)>> waiters;
  // Triple positions by OID and by value index string, built on first use.
  std::unordered_map<std::string, std::vector<size_t>> by_subject;
  std::unordered_map<std::string, std::vector<size_t>> by_object;

  // Positions of the triples whose subject (or object) is `probe`.
  const std::vector<size_t>& Matching(bool subject, const std::string& probe) {
    auto& index = subject ? by_subject : by_object;
    if (index.empty()) {
      for (size_t i = 0; i < triples.size(); ++i) {
        index[subject ? triples[i].oid : triples[i].value.ToIndexString()]
            .push_back(i);
      }
    }
    static const std::vector<size_t> kNone;
    auto it = index.find(probe);
    return it == index.end() ? kNone : it->second;
  }
};

struct Executor::QueryContext {
  std::vector<std::string> trace;
  std::vector<std::pair<std::string, std::string>> coverage_gaps;
  /// By key and suffix set: a filtered answer holds only the triples its
  /// suffixes asked for, so it serves no other request of its key.
  std::map<std::pair<pgrid::Key, std::vector<std::string>>,
           std::shared_ptr<KeyAnswer>>
      memo;
};

std::string QueryResult::ToTable() const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size() + 1;
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> line(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      auto it = row.find(columns[c]);
      line[c] = (it == row.end()) ? "-" : it->second.ToDisplayString();
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto rule = [&os, &widths]() {
    os << "+";
    for (size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };
  rule();
  os << "|";
  for (size_t c = 0; c < columns.size(); ++c) {
    os << " ?" << columns[c]
       << std::string(widths[c] - columns[c].size() - 1, ' ') << " |";
  }
  os << "\n";
  rule();
  for (const auto& line : cells) {
    os << "|";
    for (size_t c = 0; c < columns.size(); ++c) {
      os << " " << line[c] << std::string(widths[c] - line[c].size(), ' ')
         << " |";
    }
    os << "\n";
  }
  rule();
  os << rows.size() << " row(s)\n";
  return os.str();
}

Executor::Executor(triple::TripleStore* store, QueryService* service,
                   const plan::Optimizer* optimizer)
    : store_(store), service_(service), optimizer_(optimizer) {}

void Executor::Execute(const vql::Query& query, ResultCallback callback) {
  auto planned = optimizer_->Plan(query);
  if (!planned.ok()) {
    callback(planned.status());
    return;
  }
  ExecutePlan(*planned, std::move(callback));
}

void Executor::ExecutePlan(const plan::PhysicalPlan& plan,
                           ResultCallback callback) {
  std::string plan_text = plan->ToString();
  auto ctx = std::make_shared<QueryContext>();
  // The projection is the plan root; its columns name the result schema.
  std::vector<std::string> columns =
      plan->kind == algebra::LogicalOpKind::kProject
          ? plan->columns
          : std::vector<std::string>{};
  ExecNode(plan, ctx,
           [callback, ctx, plan_text = std::move(plan_text),
            columns = std::move(columns)](
               Result<std::vector<Binding>> rows) {
    if (!rows.ok()) {
      callback(rows.status());
      return;
    }
    QueryResult result;
    result.columns = columns;
    if (result.columns.empty() && !rows->empty()) {
      for (const auto& [var, value] : rows->front()) {
        result.columns.push_back(var);
      }
    }
    result.rows = std::move(*rows);
    result.plan_text = std::move(plan_text);
    result.trace = std::move(ctx->trace);
    result.coverage_gaps = std::move(ctx->coverage_gaps);
    std::sort(result.coverage_gaps.begin(), result.coverage_gaps.end());
    result.coverage_gaps.erase(std::unique(result.coverage_gaps.begin(),
                                           result.coverage_gaps.end()),
                               result.coverage_gaps.end());
    callback(std::move(result));
  });
}

void Executor::ExecNode(std::shared_ptr<PhysicalOp> node, Context ctx,
                        RowsCallback callback) {
  // Record every operator completion (output cardinality) in the trace.
  callback = [node, ctx, inner = std::move(callback)](
                 Result<std::vector<Binding>> rows) {
    std::string line(algebra::LogicalOpKindName(node->kind));
    if (node->kind == algebra::LogicalOpKind::kPatternScan) {
      line += "[" + std::string(plan::AccessPathName(node->access)) + "] " +
              node->pattern.ToString();
    }
    line += rows.ok() ? " -> " + std::to_string(rows->size()) + " rows"
                      : " -> " + rows.status().ToString();
    ctx->trace.push_back(std::move(line));
    inner(std::move(rows));
  };
  switch (node->kind) {
    case algebra::LogicalOpKind::kPatternScan:
      ExecScan(std::move(node), std::move(ctx), std::move(callback));
      return;
    case algebra::LogicalOpKind::kJoin:
      ExecJoin(std::move(node), std::move(ctx), std::move(callback));
      return;
    case algebra::LogicalOpKind::kFilter: {
      auto predicate = node->predicate;
      ExecNode(node->children[0], ctx,
               [predicate, callback](Result<std::vector<Binding>> rows) {
                 if (!rows.ok()) {
                   callback(rows.status());
                   return;
                 }
                 std::vector<Binding> kept;
                 kept.reserve(rows->size());
                 for (auto& row : *rows) {
                   if (EvaluatePredicate(*predicate, row)) {
                     kept.push_back(std::move(row));
                   }
                 }
                 callback(std::move(kept));
               });
      return;
    }
    case algebra::LogicalOpKind::kProject: {
      auto columns = node->columns;
      ExecNode(node->children[0], ctx,
               [columns, callback](Result<std::vector<Binding>> rows) {
                 if (!rows.ok()) {
                   callback(rows.status());
                   return;
                 }
                 std::vector<Binding> projected;
                 projected.reserve(rows->size());
                 for (const auto& row : *rows) {
                   Binding out;
                   for (const auto& c : columns) {
                     auto it = row.find(c);
                     if (it != row.end()) out.emplace(c, it->second);
                   }
                   projected.push_back(std::move(out));
                 }
                 callback(std::move(projected));
               });
      return;
    }
    case algebra::LogicalOpKind::kOrderBy:
    case algebra::LogicalOpKind::kTopN: {
      auto keys = node->order_keys;
      auto limit = node->limit;
      ExecNode(node->children[0], ctx,
               [keys, limit, callback](Result<std::vector<Binding>> rows) {
                 if (!rows.ok()) {
                   callback(rows.status());
                   return;
                 }
                 SortRows(&*rows, keys);
                 if (limit.has_value() && rows->size() > *limit) {
                   rows->resize(*limit);
                 }
                 callback(std::move(*rows));
               });
      return;
    }
    case algebra::LogicalOpKind::kSkyline: {
      auto keys = node->skyline_keys;
      ExecNode(node->children[0], ctx,
               [keys, callback](Result<std::vector<Binding>> rows) {
                 if (!rows.ok()) {
                   callback(rows.status());
                   return;
                 }
                 callback(SkylineOf(std::move(*rows), keys));
               });
      return;
    }
    case algebra::LogicalOpKind::kLimit: {
      auto limit = node->limit;
      ExecNode(node->children[0], ctx,
               [limit, callback](Result<std::vector<Binding>> rows) {
                 if (!rows.ok()) {
                   callback(rows.status());
                   return;
                 }
                 if (limit.has_value() && rows->size() > *limit) {
                   rows->resize(*limit);
                 }
                 callback(std::move(*rows));
               });
      return;
    }
  }
  callback(Status::Internal("unknown physical operator"));
}

void Executor::ExecScan(std::shared_ptr<PhysicalOp> node, Context ctx,
                        RowsCallback callback) {
  auto bind_and_return =
      [node, callback](Result<std::vector<Triple>> triples) {
        if (!triples.ok()) {
          callback(triples.status());
          return;
        }
        callback(BindTriples(*node, *triples, Binding{}));
      };

  const auto& p = node->pattern;
  switch (node->access) {
    case AccessPath::kOidLookup: {
      if (!p.subject.literal.is_string()) {
        callback(Status::InvalidArgument("OID literal must be a string"));
        return;
      }
      store_->GetByOid(p.subject.literal.AsString(), bind_and_return);
      return;
    }
    case AccessPath::kAttrValueLookup: {
      auto fan = std::make_shared<TripleFanIn>();
      fan->remaining = node->attributes.size();
      fan->done = bind_and_return;
      for (const auto& attr : node->attributes) {
        store_->GetByAttrValue(attr, p.object.literal,
                               [fan](Result<std::vector<Triple>> r) {
                                 fan->Arrive(std::move(r));
                               });
      }
      return;
    }
    case AccessPath::kValueLookup: {
      store_->GetByValue(p.object.literal, bind_and_return);
      return;
    }
    case AccessPath::kAttrRangeScan: {
      auto fan = std::make_shared<TripleFanIn>();
      fan->remaining = node->attributes.size();
      fan->done = bind_and_return;
      for (const auto& attr : node->attributes) {
        if (node->scan_limit > 0) {
          store_->GetByAttrRangeOrdered(attr, node->object_lo,
                                        node->object_hi, node->scan_limit,
                                        [fan](Result<std::vector<Triple>> r) {
                                          fan->Arrive(std::move(r));
                                        });
        } else {
          store_->GetByAttrRange(attr, node->object_lo, node->object_hi,
                                 node->range_strategy,
                                 [fan](Result<std::vector<Triple>> r) {
                                   fan->Arrive(std::move(r));
                                 });
        }
      }
      return;
    }
    case AccessPath::kFullScan: {
      store_->ScanAll(node->range_strategy, bind_and_return);
      return;
    }
    case AccessPath::kSimilarityNaive: {
      // Full attribute scan; BindTriples verifies edist exactly, the
      // residual filter CONTAINS.
      auto fan = std::make_shared<TripleFanIn>();
      fan->remaining = node->attributes.size();
      fan->done = bind_and_return;
      for (const auto& attr : node->attributes) {
        store_->ScanAttribute(attr, node->range_strategy,
                              [fan](Result<std::vector<Triple>> r) {
                                fan->Arrive(std::move(r));
                              });
      }
      return;
    }
    case AccessPath::kSimilarityQGram: {
      ExecSimilarityQGram(std::move(node), std::move(ctx),
                          std::move(callback));
      return;
    }
  }
  callback(Status::Internal("unknown access path"));
}

void Executor::ExecSimilarityQGram(std::shared_ptr<PhysicalOp> node,
                                   Context ctx, RowsCallback callback) {
  // Pigeonhole gram selection (qgram::SelectGrams): every edist <= k
  // match, and every value containing the needle (k = 0, one gram inside
  // it), holds one of these grams. Posting traffic stays proportional to
  // the edit budget instead of the target length.
  const std::vector<std::string> grams = node->PostingGrams();
  // The safety net that keeps forced plans correct (the optimizer avoids
  // these cases): without postings no lookup finds anything, an attribute
  // whose grams share one key has none written, and when no gram set
  // reaches the budget the lookups cannot enumerate the matches.
  const char* fallback =
      !optimizer_->options().qgram_postings ? "no q-gram postings"
      : !node->PostingKeysPerGram() ? "attribute has no own gram keys"
      : grams.empty() ? "threshold vacuous"
                      : nullptr;
  if (fallback != nullptr) {
    ctx->trace.push_back(std::string("SimilarityQGram: ") + fallback +
                         ", falling back to naive scan");
    auto naive = std::make_shared<PhysicalOp>(*node);
    naive->access = AccessPath::kSimilarityNaive;
    ExecScan(naive, std::move(ctx), std::move(callback));
    return;
  }

  pgrid::KeySuffixes keys;
  for (const auto& attr : node->attributes) {
    for (const auto& gram : grams) keys[qgram::QGramKey(attr, gram)];
  }
  store_->GetByKeys(
      std::move(keys),
      [node, callback](const Result<triple::TripleStore::KeyTriples>& found) {
        if (!found.ok()) {
          callback(found.status());
          return;
        }
        std::map<std::string, Triple> candidates;  // identity -> triple
        for (const auto& [key, triples] : *found) {
          for (const Triple& t : triples) candidates.emplace(t.Identity(), t);
        }
        std::vector<Triple> triples;
        triples.reserve(candidates.size());
        for (auto& [id, t] : candidates) triples.push_back(std::move(t));
        // BindTriples verifies each edist candidate with the banded edit
        // distance; the residual CONTAINS filter checks substrings.
        callback(BindTriples(*node, triples, Binding{}));
      });
}

void Executor::ExecJoin(std::shared_ptr<PhysicalOp> node, Context ctx,
                        RowsCallback callback) {
  auto self = this;
  ExecNode(node->children[0], ctx,
           [self, node, ctx, callback](
                                  Result<std::vector<Binding>> left) {
    if (!left.ok()) {
      callback(left.status());
      return;
    }
    if (left->empty()) {
      callback(std::vector<Binding>{});
      return;
    }

    JoinStrategy strategy = node->join_strategy;
    if (node->adaptive) {
      // Adaptive re-optimization: now the left cardinality is exact.
      strategy = self->optimizer_->ChooseJoinStrategy(
          static_cast<double>(left->size()), node->children[1]->pattern);
      if (strategy != node->join_strategy) {
        ctx->trace.push_back(
            "Join: adaptive switch " +
            std::string(plan::JoinStrategyName(node->join_strategy)) +
            " -> " + std::string(plan::JoinStrategyName(strategy)) +
            " at left cardinality " + std::to_string(left->size()));
      }
    }

    const auto& right = *node->children[1];
    const bool right_is_scan =
        right.kind == algebra::LogicalOpKind::kPatternScan;
    // Migrate needs a literal right attribute, a plain (non-similarity)
    // scan and no mapping expansion.
    const bool can_migrate =
        right_is_scan && !right.pattern.predicate.is_variable &&
        right.sim_target.empty() && right.attributes.size() <= 1;
    // Probe needs the right subject, or the object under a literal
    // attribute, bound by the left side.
    const ProbeBy probe_by = ProbeSideOf(right, left->front());
    const bool can_probe = probe_by != ProbeBy::kNone;

    if (strategy == JoinStrategy::kMigrate && !can_migrate) {
      strategy = can_probe ? JoinStrategy::kProbe : JoinStrategy::kLocalHash;
      ctx->trace.push_back("Join: migrate infeasible, fallback");
    }
    if (strategy == JoinStrategy::kProbe && !can_probe) {
      strategy = JoinStrategy::kLocalHash;
      ctx->trace.push_back("Join: probe infeasible, fallback");
    }

    switch (strategy) {
      case JoinStrategy::kProbe:
        self->ExecProbeJoin(node, std::move(*left),
                            probe_by == ProbeBy::kSubject, ctx, callback);
        return;
      case JoinStrategy::kMigrate:
        self->service_->RunMigrateJoin(
            right.pattern, std::move(*left),
            self->optimizer_->options().migrate_batching,
            [callback, ctx](Result<MigrateResult> migrated) {
              if (!migrated.ok()) {
                callback(migrated.status());
                return;
              }
              // Fan-out-accurate accounting: peers_visited sums across
              // sub-walks (per-branch max over chunks), never
              // last-walk-wins.
              std::string line =
                  "Join[Migrate]: branches=" +
                  std::to_string(migrated->branches) + " chunks=" +
                  std::to_string(migrated->chunks_per_branch) +
                  " envelopes=" +
                  std::to_string(migrated->envelopes_launched) +
                  " peers_visited=" + std::to_string(migrated->peers_visited);
              // An abandoned walk (out of retries or past the join
              // deadline) leaves rows out: name every uncovered interval
              // in the trace and the result.
              for (auto& gap : migrated->coverage_gaps) {
                line += " gap=[" + gap.first + "," + gap.second + "]";
                ctx->coverage_gaps.push_back(std::move(gap));
              }
              ctx->trace.push_back(std::move(line));
              callback(std::move(migrated->rows));
            });
        return;
      case JoinStrategy::kLocalHash:
        self->ExecLocalHashJoin(node, std::move(*left), ctx, callback);
        return;
    }
    callback(Status::Internal("unknown join strategy"));
  });
}

void Executor::FetchKeys(const Context& ctx, const pgrid::KeySuffixes& keys,
                         std::function<void(const pgrid::Key&, KeyAnswer&)>
                             ready) {
  pgrid::KeySuffixes misses;
  std::vector<std::pair<pgrid::Key, std::shared_ptr<KeyAnswer>>> fetched;
  for (const auto& [key, suffixes] : keys) {
    std::shared_ptr<KeyAnswer>& answer = ctx->memo[{key, suffixes}];
    if (!answer) {
      answer = std::make_shared<KeyAnswer>();
      misses.emplace(key, suffixes);
      fetched.emplace_back(key, answer);
    }
    if (answer->done) {
      ready(key, *answer);
    } else {
      answer->waiters.push_back(
          [key, ready](KeyAnswer& done) { ready(key, done); });
    }
  }
  if (misses.empty()) return;
  store_->GetByKeys(std::move(misses), [fetched](
                                Result<triple::TripleStore::KeyTriples> found) {
    for (const auto& [key, fetching] : fetched) {
      KeyAnswer& answer = *fetching;
      if (!found.ok()) {
        answer.status = found.status();
      } else if (auto it = found->find(key); it != found->end()) {
        answer.triples = std::move(it->second);
      }
      answer.done = true;
      auto waiters = std::move(answer.waiters);
      for (auto& waiter : waiters) waiter(answer);
    }
  });
}

void Executor::ExecProbeJoin(std::shared_ptr<PhysicalOp> node,
                             std::vector<Binding> left, bool by_subject,
                             Context ctx, RowsCallback callback) {
  auto right = node->children[1];
  const vql::Term& term =
      by_subject ? right->pattern.subject : right->pattern.object;

  struct State {
    std::vector<Binding> left;
    /// Per left row: its bound value as the answer's hash key (the OID, or
    /// the value's index string).
    std::vector<std::string> probe;
    /// The left rows each index key serves.
    std::map<pgrid::Key, std::vector<size_t>> rows_by_key;
    /// Per left row: its joined rows, concatenated in left order at the end.
    std::vector<std::vector<Binding>> out;
    size_t remaining = 0;
    Status first_error;
    RowsCallback done;
  };
  auto state = std::make_shared<State>();
  state->probe.resize(left.size());
  state->out.resize(left.size());
  state->done = std::move(callback);

  // Group the rows by the index keys their bound value probes. Long
  // attribute names fill the key prefix, so many values share one key: an
  // object probe then asks the key's owner only for the triples of its
  // values, one suffix per value (TripleStore::GetByKeys), unless a value
  // the key alone tells apart needs every triple under it.
  auto& rows_by_key = state->rows_by_key;
  pgrid::KeySuffixes keys;
  std::set<pgrid::Key> whole;
  for (size_t i = 0; i < left.size(); ++i) {
    Value value = term.literal;
    if (term.is_variable) {
      auto it = left[i].find(term.variable);
      if (it == left[i].end()) continue;
      value = it->second;
    }
    if (by_subject) {
      if (!value.is_string()) continue;
      state->probe[i] = value.AsString();
      rows_by_key[triple::OidKey(value.AsString())].push_back(i);
      continue;
    }
    state->probe[i] = value.ToIndexString();
    for (const auto& attr : right->attributes) {
      const pgrid::Key key = triple::AttrValueKey(attr, value);
      std::vector<size_t>& rows = rows_by_key[key];
      if (rows.empty() || rows.back() != i) rows.push_back(i);
      std::string suffix = triple::AttrValueSuffix(attr, value);
      if (suffix.empty()) {
        whole.insert(key);
      } else {
        keys[key].push_back(std::move(suffix));
      }
    }
  }
  state->left = std::move(left);
  state->remaining = rows_by_key.size();

  size_t filtered = 0;
  size_t memo_hits = 0;
  for (const auto& [key, rows] : rows_by_key) {
    std::vector<std::string>& suffixes = keys[key];
    if (whole.count(key) > 0) {
      suffixes.clear();
    } else {
      std::sort(suffixes.begin(), suffixes.end());
      suffixes.erase(std::unique(suffixes.begin(), suffixes.end()),
                     suffixes.end());
    }
    filtered += suffixes.empty() ? 0 : 1;
    memo_hits += ctx->memo.count({key, suffixes});
  }
  const size_t lookups = keys.size() - memo_hits;
  ctx->trace.push_back(
      "Join[Probe]: by=" + std::string(by_subject ? "subject" : "object") +
      " rows=" + std::to_string(state->left.size()) +
      " keys=" + std::to_string(keys.size()) +
      " filtered=" + std::to_string(filtered) +
      " lookups=" + std::to_string(lookups) +
      " memo_hits=" + std::to_string(memo_hits) +
      " batches=" + std::to_string(lookups > 0 ? 1 : 0));
  if (keys.empty()) {
    state->done(std::vector<Binding>{});
    return;
  }

  FetchKeys(ctx, keys, [state, right, by_subject](const pgrid::Key& key,
                                                  KeyAnswer& answer) {
    if (!answer.status.ok()) {
      if (state->first_error.ok()) state->first_error = answer.status;
    } else {
      for (size_t i : state->rows_by_key.at(key)) {
        for (size_t t : answer.Matching(by_subject, state->probe[i])) {
          BindTriple(*right, answer.triples[t], state->left[i],
                     &state->out[i]);
        }
      }
    }
    if (--state->remaining > 0) return;
    if (!state->first_error.ok()) {
      state->done(state->first_error);
      return;
    }
    std::vector<Binding> joined;
    for (auto& rows_of : state->out) {
      joined.insert(joined.end(), std::make_move_iterator(rows_of.begin()),
                    std::make_move_iterator(rows_of.end()));
    }
    state->done(std::move(joined));
  });
}

void Executor::ExecLocalHashJoin(std::shared_ptr<PhysicalOp> node,
                                 std::vector<Binding> left, Context ctx,
                                 RowsCallback callback) {
  auto right = node->children[1];
  ExecNode(right, ctx,
           [left = std::move(left), right, callback](
                      Result<std::vector<Binding>> right_rows) mutable {
    if (!right_rows.ok()) {
      callback(right_rows.status());
      return;
    }
    // Shared variables determine the hash key; with none this degrades to
    // a cross product (legal VQL, rare in practice).
    std::vector<std::string> left_vars;
    if (!left.empty()) {
      for (const auto& [var, value] : left.front()) left_vars.push_back(var);
    }
    std::vector<std::string> right_vars;
    if (!right_rows->empty()) {
      for (const auto& [var, value] : right_rows->front()) {
        right_vars.push_back(var);
      }
    }
    std::vector<std::string> shared =
        algebra::SharedVariables(left_vars, right_vars);

    std::vector<Binding> out;
    if (shared.empty()) {
      for (const auto& l : left) {
        for (const auto& r : *right_rows) {
          if (Compatible(l, r)) out.push_back(Merge(l, r));
        }
      }
      callback(std::move(out));
      return;
    }
    std::multimap<std::string, const Binding*> table;
    for (const auto& r : *right_rows) {
      table.emplace(JoinKeyOf(r, shared), &r);
    }
    for (const auto& l : left) {
      auto [lo, hi] = table.equal_range(JoinKeyOf(l, shared));
      for (auto it = lo; it != hi; ++it) {
        if (Compatible(l, *it->second)) out.push_back(Merge(l, *it->second));
      }
    }
    callback(std::move(out));
  });
}

// --- Local ranking helpers ---------------------------------------------------

bool Dominates(const Binding& a, const Binding& b,
               const std::vector<vql::SkylineKey>& keys) {
  bool strictly_better = false;
  for (const auto& key : keys) {
    auto ia = a.find(key.variable);
    auto ib = b.find(key.variable);
    if (ia == a.end() || ib == b.end()) return false;
    int cmp = ia->second.Compare(ib->second);
    if (key.direction == vql::SkylineDirection::kMax) cmp = -cmp;
    if (cmp > 0) return false;  // Worse in this dimension.
    if (cmp < 0) strictly_better = true;
  }
  return strictly_better;
}

std::vector<Binding> SkylineOf(std::vector<Binding> rows,
                               const std::vector<vql::SkylineKey>& keys) {
  // Block-nested-loop skyline.
  std::vector<Binding> window;
  for (auto& candidate : rows) {
    bool dominated = false;
    for (const auto& kept : window) {
      if (Dominates(kept, candidate, keys)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    window.erase(std::remove_if(window.begin(), window.end(),
                                [&](const Binding& kept) {
                                  return Dominates(candidate, kept, keys);
                                }),
                 window.end());
    window.push_back(std::move(candidate));
  }
  return window;
}

void SortRows(std::vector<Binding>* rows,
              const std::vector<vql::OrderKey>& keys) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&keys](const Binding& a, const Binding& b) {
                     for (const auto& key : keys) {
                       auto ia = a.find(key.variable);
                       auto ib = b.find(key.variable);
                       const Value va = ia == a.end() ? Value() : ia->second;
                       const Value vb = ib == b.end() ? Value() : ib->second;
                       int cmp = va.Compare(vb);
                       if (key.direction == vql::SortDirection::kDesc) {
                         cmp = -cmp;
                       }
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
}

}  // namespace exec
}  // namespace unistore
