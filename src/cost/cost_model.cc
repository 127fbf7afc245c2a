#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace unistore {
namespace cost {

std::string Cost::ToString() const {
  std::ostringstream os;
  os << "msgs=" << messages << " latency_us=" << latency_us
     << " tuples=" << tuples_moved << " total=" << Total();
  return os.str();
}

Cost CostModel::Lookup() const {
  const auto& net = catalog_->network();
  double hops = net.ExpectedLookupHops();
  return Cost{hops + 1,  // Forwarding chain + direct reply.
              (hops + 1) * net.hop_latency_us, 1};
}

Cost CostModel::RangeScanSequential(double peers_in_range,
                                    double expected_entries) const {
  const auto& net = catalog_->network();
  double peers = std::max(1.0, peers_in_range);
  double route_in = net.ExpectedLookupHops();
  // Walk: one forward + one partial reply per peer; latency accumulates
  // peer by peer (the defining property of the sequential strategy).
  return Cost{route_in + 2 * peers,
              (route_in + peers) * net.hop_latency_us,
              expected_entries};
}

Cost CostModel::RangeScanShower(double peers_in_range,
                                double expected_entries) const {
  const auto& net = catalog_->network();
  double peers = std::max(1.0, peers_in_range);
  // Fan-out tree over the covered peers: ~peers forwards + peers replies,
  // critical path logarithmic in the covered peers plus routing in.
  double depth = std::log2(std::max(2.0, peers)) + 1;
  return Cost{2 * peers, (depth + 1) * net.hop_latency_us,
              expected_entries};
}

Cost CostModel::IndexJoinProbe(double left_cardinality,
                               double match_probability) const {
  Cost per_probe = Lookup();
  return Cost{per_probe.messages * left_cardinality,
              // Probes run in parallel; critical path is one lookup (plus
              // a small scheduling overhead per extra probe).
              per_probe.latency_us + left_cardinality * 10,
              left_cardinality * std::max(match_probability, 0.1)};
}

Cost CostModel::IndexJoinMigrate(double left_cardinality,
                                 double peers_in_range,
                                 const MigrateBatching& batching) const {
  const auto& net = catalog_->network();
  const double peers = std::max(1.0, peers_in_range);
  const double route_in = net.ExpectedLookupHops();
  const double branches =
      std::min(peers, std::max(1.0, batching.fanout));
  const double chunks =
      batching.max_bindings_per_envelope > 0
          ? std::max(1.0, std::ceil(left_cardinality /
                                    batching.max_bindings_per_envelope))
          : 1.0;
  const double chunk_size = left_cardinality / chunks;
  const double branch_peers = peers / branches;

  // Per-visit service time: fixed overhead + pair work of one chunk.
  const double join_us = batching.visit_cost_us +
                         batching.pair_cost_us * chunk_size *
                             std::max(1.0, batching.triples_per_peer);
  // A branch is a (branch_peers)-stage pipeline fed with `chunks`
  // envelopes: each stage overlaps its forward with its join, so a stage
  // takes the longer of the two.
  const double stage_us = std::max(net.hop_latency_us, join_us);
  const double latency_us =
      (route_in + 1) * net.hop_latency_us +
      (branch_peers + chunks - 1) * stage_us;

  // Envelope hops (route-in per launched walk + one hop per visited peer
  // per chunk) plus one streamed reply per visit.
  const double messages =
      branches * chunks * route_in + peers * chunks  // envelope hops
      + peers * chunks;                              // replies
  // Each binding rides its branch's slice of the partition once.
  const double tuples = left_cardinality * (branch_peers + 1);
  return Cost{messages, latency_us, tuples};
}

Cost CostModel::SimilarityQGram(double max_distance, double q,
                                double expected_candidates) const {
  // Pigeonhole gram selection: at most k*q + 1 posting keys, fetched in
  // one key-set lookup (routed once, at most one reply per key).
  const double posting_keys = max_distance * q + 1;
  Cost c = Lookup();
  c.messages += posting_keys - 1;
  c.latency_us += posting_keys * 10;
  c.tuples_moved = expected_candidates;
  return c;
}

Cost CostModel::SimilarityNaive(double peers_in_range,
                                double attribute_triples) const {
  // Route into the partition, then shower over it.
  const auto& net = catalog_->network();
  const double route_in = net.ExpectedLookupHops();
  Cost shower = RangeScanShower(peers_in_range, attribute_triples);
  shower.messages += route_in;
  shower.latency_us += route_in * net.hop_latency_us;
  return shower;
}

}  // namespace cost
}  // namespace unistore
