#include "core/cluster.h"

#include <cmath>
#include <optional>


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

template <typename R>
Result<R> Cluster::RunSync(
    std::function<void(std::function<void(Result<R>)>)> op) {
  std::optional<Result<R>> out;
  op([&out](Result<R> r) { out = std::move(r); });
  scheduler().RunUntil([&out] { return out.has_value(); });
  if (!out.has_value()) {
    return Status::Internal("simulation drained before completion");
  }
  return std::move(*out);
}

Status Cluster::RunSyncStatus(
    std::function<void(std::function<void(Status)>)> op) {
  std::optional<Status> out;
  op([&out](Status s) { out = std::move(s); });
  scheduler().RunUntil([&out] { return out.has_value(); });
  if (!out.has_value()) {
    return Status::Internal("simulation drained before completion");
  }
  return *out;
}

Status Cluster::InsertTupleSync(net::PeerId via, const triple::Tuple& tuple) {
  return RunSyncStatus([this, via, &tuple](std::function<void(Status)> cb) {
    node(via).InsertTuple(tuple, std::move(cb));
  });
}

Status Cluster::BulkLoadTuplesSync(net::PeerId via,
                                   const std::vector<triple::Tuple>& tuples) {
  return RunSyncStatus([this, via, &tuples](std::function<void(Status)> cb) {
    node(via).BulkLoadTuples(tuples, std::move(cb));
  });
}

Status Cluster::InsertTripleSync(net::PeerId via,
                                 const triple::Triple& triple) {
  return RunSyncStatus([this, via, &triple](std::function<void(Status)> cb) {
    node(via).InsertTriple(triple, std::move(cb));
  });
}

Status Cluster::RemoveTripleSync(net::PeerId via,
                                 const triple::Triple& triple) {
  return RunSyncStatus([this, via, &triple](std::function<void(Status)> cb) {
    node(via).RemoveTriple(triple, std::move(cb));
  });
}

Status Cluster::InsertMappingSync(net::PeerId via, const std::string& from,
                                  const std::string& to) {
  return RunSyncStatus(
      [this, via, &from, &to](std::function<void(Status)> cb) {
        node(via).InsertMapping(from, to, std::move(cb));
      });
}

Status Cluster::LoadMappingsSync(net::PeerId via) {
  return RunSyncStatus([this, via](std::function<void(Status)> cb) {
    node(via).LoadMappings(std::move(cb));
  });
}

Result<exec::QueryResult> Cluster::QuerySync(net::PeerId via,
                                             const std::string& vql_text) {
  return RunSync<exec::QueryResult>(
      [this, via, &vql_text](
          std::function<void(Result<exec::QueryResult>)> cb) {
        node(via).Query(vql_text, std::move(cb));
      });
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
