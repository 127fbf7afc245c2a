#include "core/cluster.h"

#include <cmath>

namespace unistore {
namespace core {
namespace {

std::unique_ptr<sim::LatencyModel> MakeLatency(const ClusterOptions& options) {
  if (options.latency == ClusterOptions::Latency::kWan) {
    return std::make_unique<sim::WanLatency>(options.wan);
  }
  return std::make_unique<sim::ConstantLatency>(options.lan_delay_us);
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  pgrid::OverlayOptions overlay_options;
  overlay_options.replication = options_.replication;
  overlay_options.peer = options_.peer;
  overlay_options.seed = options_.seed;
  overlay_options.loss_probability = options_.loss_probability;
  overlay_options.fault_schedule = options_.fault_schedule;
  overlay_ = std::make_unique<pgrid::Overlay>(overlay_options,
                                              MakeLatency(options_));
  overlay_->AddPeers(options_.peers);
  if (!options_.custom_paths.empty()) {
    overlay_->BuildWithPaths(options_.custom_paths);
  } else if (options_.balanced_construction) {
    overlay_->BuildBalanced();
  }
  nodes_.reserve(options_.peers);
  for (size_t i = 0; i < options_.peers; ++i) {
    nodes_.push_back(std::make_unique<UniStore>(
        overlay_->peer(static_cast<net::PeerId>(i)), options_.node));
  }
  if (!options_.churn_schedule.empty()) {
    InstallChurn(options_.churn_schedule);
  }
}

std::vector<net::PeerId> Cluster::InstallChurn(net::ChurnSchedule schedule) {
  std::vector<net::PeerId> joiners = overlay_->InstallChurn(std::move(schedule));
  // A joiner is a full node: the query layer attaches before its join
  // event fires, so it serves queries the moment it adopts a path.
  for (net::PeerId id : joiners) {
    if (id >= nodes_.size()) {
      nodes_.resize(id + 1);
    }
    if (nodes_[id] == nullptr) {
      nodes_[id] = std::make_unique<UniStore>(overlay_->peer(id),
                                              options_.node);
    }
  }
  return joiners;
}

double Cluster::ExpectedHopLatencyUs() const {
  if (options_.latency == ClusterOptions::Latency::kWan) {
    // Lognormal mean = exp(mu + sigma^2/2), plus mean jitter.
    return std::exp(options_.wan.mu +
                    options_.wan.sigma * options_.wan.sigma / 2) +
           options_.wan.jitter_mean_us;
  }
  return static_cast<double>(options_.lan_delay_us);
}

Status Cluster::InsertTupleSync(net::PeerId via, const triple::Tuple& tuple) {
  return pgrid::RunToCompletion<Status>(scheduler(), "insert", [&](auto done) {
    node(via).InsertTuple(tuple, done);
  });
}

Status Cluster::BulkLoadTuplesSync(net::PeerId via,
                                   const std::vector<triple::Tuple>& tuples) {
  return pgrid::RunToCompletion<Status>(
      scheduler(), "bulk load",
      [&](auto done) { node(via).BulkLoadTuples(tuples, done); });
}

Status Cluster::InsertTripleSync(net::PeerId via,
                                 const triple::Triple& triple) {
  return pgrid::RunToCompletion<Status>(scheduler(), "insert", [&](auto done) {
    node(via).InsertTriple(triple, done);
  });
}

Status Cluster::RemoveTripleSync(net::PeerId via,
                                 const triple::Triple& triple) {
  return pgrid::RunToCompletion<Status>(scheduler(), "remove", [&](auto done) {
    node(via).RemoveTriple(triple, done);
  });
}

Status Cluster::InsertMappingSync(net::PeerId via, const std::string& from,
                                  const std::string& to) {
  return pgrid::RunToCompletion<Status>(
      scheduler(), "mapping insert",
      [&](auto done) { node(via).InsertMapping(from, to, done); });
}

Status Cluster::LoadMappingsSync(net::PeerId via) {
  return pgrid::RunToCompletion<Status>(
      scheduler(), "mapping load",
      [&](auto done) { node(via).LoadMappings(done); });
}

Result<exec::QueryResult> Cluster::QuerySync(net::PeerId via,
                                             const std::string& vql_text) {
  return pgrid::RunToCompletion<Result<exec::QueryResult>>(
      scheduler(), "query",
      [&](auto done) { node(via).Query(vql_text, done); });
}

Result<Cluster::Measured> Cluster::QueryMeasured(
    net::PeerId via, const std::string& vql_text) {
  const net::TrafficStats before = overlay_->transport().stats();
  const sim::SimTime start = scheduler().Now();
  UNISTORE_ASSIGN_OR_RETURN(exec::QueryResult result,
                            QuerySync(via, vql_text));
  Measured measured;
  measured.result = std::move(result);
  measured.traffic = overlay_->transport().stats().Since(before);
  measured.virtual_latency_us = scheduler().Now() - start;
  return measured;
}

Status Cluster::StorageStatus() const {
  for (const auto& n : nodes_) {
    Status s = n->StorageStatus();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void Cluster::RefreshStats(size_t gossip_rounds) {
  const double hop_latency = ExpectedHopLatencyUs();
  for (auto& n : nodes_) n->RefreshStats(hop_latency);
  for (size_t round = 0; round < gossip_rounds; ++round) {
    for (auto& n : nodes_) n->GossipStats(/*fanout=*/3);
    scheduler().RunUntilIdle();
  }
}

void Cluster::SetPlannerOptions(const plan::PlannerOptions& options) {
  for (auto& n : nodes_) n->SetPlannerOptions(options);
}

void Cluster::SetEnvelopeOptions(const exec::EnvelopeOptions& options) {
  for (auto& n : nodes_) n->SetEnvelopeOptions(options);
}

}  // namespace core
}  // namespace unistore
