#include "core/unistore.h"

#include "qgram/qgram.h"
#include "triple/index.h"

namespace unistore {
namespace core {

UniStore::UniStore(pgrid::Peer* peer, NodeOptions options)
    : peer_(peer),
      options_(std::move(options)),
      store_(peer),
      service_(peer),
      oid_generator_("oid-" + std::to_string(peer->id()) + "-") {
  SetPlannerOptions(options_.planner);
  // Crash-restart invalidation (DESIGN.md §11): the query layer's
  // volatile state (open migrations, gossip contributions, serving clock)
  // must not survive the process.
  peer_->set_restart_hook([this]() { service_.OnPeerRestart(); });
}

void UniStore::SetPlannerOptions(plan::PlannerOptions options) {
  options_.planner = options;
  if (options_.planner.apply_mappings &&
      options_.planner.mappings == nullptr) {
    options_.planner.mappings = &mappings_;
  }
  // The q-gram path looks up grams of length kDefaultQ; only postings of
  // that length can answer it.
  options_.planner.qgram_postings =
      options_.qgram_index && options_.qgram_q == qgram::kDefaultQ;
  optimizer_ = std::make_unique<plan::Optimizer>(&service_.catalog(),
                                                 options_.planner);
  executor_ =
      std::make_unique<exec::Executor>(&store_, &service_, optimizer_.get());
}

std::string UniStore::NewOid() { return oid_generator_.Next(); }

uint64_t UniStore::NextVersion() {
  // Versions must be comparable across nodes for last-writer-wins: virtual
  // time in the high bits, peer id in the low bits breaks ties
  // deterministically; the sequence keeps same-instant local writes
  // ordered.
  uint64_t now = static_cast<uint64_t>(
      peer_->transport()->scheduler()->Now());
  return (now << 20) | ((++version_sequence_ & 0x3FF) << 10) |
         (peer_->id() & 0x3FF);
}

void UniStore::WriteTriples(const std::vector<triple::Triple>& triples,
                            bool deleted, StatusCallback callback) {
  const uint64_t version = NextVersion();
  std::vector<pgrid::Entry> entries;
  auto append = [&entries](std::vector<pgrid::Entry> more) {
    entries.insert(entries.end(), std::make_move_iterator(more.begin()),
                   std::make_move_iterator(more.end()));
  };
  for (const triple::Triple& t : triples) {
    append(triple::EntriesForTriple(t, version, deleted));
    if (options_.qgram_index) {
      append(qgram::EntriesForTripleQGrams(t, options_.qgram_q, version,
                                           deleted));
    }
  }
  store_.InsertEntries(std::move(entries), std::move(callback));
}

void UniStore::InsertTriple(const triple::Triple& triple,
                            StatusCallback callback) {
  WriteTriples({triple}, /*deleted=*/false, std::move(callback));
}

void UniStore::InsertTuple(const triple::Tuple& tuple,
                           StatusCallback callback) {
  WriteTriples(triple::Decompose(tuple), /*deleted=*/false,
               std::move(callback));
}

void UniStore::BulkLoadTuples(const std::vector<triple::Tuple>& tuples,
                              StatusCallback callback) {
  std::vector<triple::Triple> triples;
  for (const triple::Tuple& tuple : tuples) {
    std::vector<triple::Triple> decomposed = triple::Decompose(tuple);
    triples.insert(triples.end(), std::make_move_iterator(decomposed.begin()),
                   std::make_move_iterator(decomposed.end()));
  }
  WriteTriples(triples, /*deleted=*/false, std::move(callback));
}

void UniStore::RemoveTriple(const triple::Triple& triple,
                            StatusCallback callback) {
  WriteTriples({triple}, /*deleted=*/true, std::move(callback));
}

void UniStore::InsertMapping(const std::string& from, const std::string& to,
                             StatusCallback callback) {
  mappings_.Add(from, to);
  InsertTriple(triple::MakeMappingTriple(from, to), std::move(callback));
}

void UniStore::LoadMappings(StatusCallback callback) {
  store_.ScanAttribute(
      triple::kMappingAttribute, triple::RangeStrategy::kShower,
      [this, callback](Result<std::vector<triple::Triple>> triples) {
        if (!triples.ok()) {
          callback(triples.status());
          return;
        }
        mappings_.AddFromTriples(*triples);
        callback(Status::OK());
      });
}

void UniStore::Query(const std::string& vql_text, ResultCallback callback) {
  auto parsed = vql::Parse(vql_text);
  if (!parsed.ok()) {
    callback(parsed.status());
    return;
  }
  QueryParsed(*parsed, std::move(callback));
}

void UniStore::QueryParsed(const vql::Query& query, ResultCallback callback) {
  // Re-merge the gossiped statistics view before planning: the optimizer
  // reads the merged catalog by reference, and refreshing it at every
  // query entry (not lazily mid-execution) keeps plans adaptive AND
  // repeatable — two identical queries over unchanged contributions plan
  // identically.
  (void)service_.catalog();
  executor_->Execute(query, std::move(callback));
}

void UniStore::QueryPlan(const plan::PhysicalPlan& plan,
                         ResultCallback callback) {
  (void)service_.catalog();
  executor_->ExecutePlan(plan, std::move(callback));
}

Result<plan::PhysicalPlan> UniStore::PlanOnly(
    const std::string& vql_text) const {
  UNISTORE_ASSIGN_OR_RETURN(vql::Query query, vql::Parse(vql_text));
  (void)service_.catalog();
  return optimizer_->Plan(query);
}

Status UniStore::StorageStatus() const {
  return peer_->store().io_status();
}

void UniStore::RefreshStats(double hop_latency_us) {
  service_.BuildLocalStats(hop_latency_us);
}

}  // namespace core
}  // namespace unistore
