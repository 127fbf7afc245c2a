// Statistics catalog: what a peer believes about the network and the data.
//
// The paper bases its cost model "on the characteristics of the used
// overlay system and the actual data distribution" (§2). Network
// characteristics (size estimate, trie depth, hop latency) come from the
// overlay; data distribution (per-attribute counts, value ranges) is
// disseminated by gossip (kStatsGossip messages).
#ifndef UNISTORE_COST_STATS_H_
#define UNISTORE_COST_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "pgrid/key.h"
#include "pgrid/ophash.h"

namespace unistore {
namespace cost {

/// Overlay-level characteristics.
struct NetworkStats {
  double peer_count = 1;        ///< Estimated number of peers.
  double trie_depth = 0;        ///< Max path length (= worst-case hops).
  double hop_latency_us = 1000; ///< Expected one-way per-hop latency.

  /// Expected hops of a greedy prefix lookup: half the depth on average.
  double ExpectedLookupHops() const { return trie_depth / 2 + 1; }
};

/// Per-attribute data distribution summary.
struct AttrStats {
  uint64_t triple_count = 0;
  uint64_t distinct_values = 0;
  double numeric_min = 0;
  double numeric_max = 0;
  bool has_numeric_range = false;
  double avg_string_length = 0;

  void MergeFrom(const AttrStats& other);

  void Encode(BufferWriter* w) const;
  static Result<AttrStats> Decode(BufferReader* r);
};

/// \brief A peer's (gossip-merged) view of the data distribution.
class StatsCatalog {
 public:
  NetworkStats& network() { return network_; }
  const NetworkStats& network() const { return network_; }

  /// Records triples of `attribute` (local contribution).
  void RecordAttribute(const std::string& attribute, const AttrStats& stats);

  /// Merges another catalog's attribute map (gossip receive).
  void MergeFrom(const StatsCatalog& other);

  /// Merges one peer's local contribution, at most once per peer path:
  /// replicas of a path store the same triples, so a contribution whose
  /// paths are all already in the sample is skipped.
  void MergeContribution(const StatsCatalog& contribution);

  /// Stats of one attribute; zeros if unknown.
  AttrStats Attribute(const std::string& attribute) const;

  /// Estimated fraction of `attribute` triples with value in [lo, hi]
  /// (numeric interpolation; 1.0 when unknown).
  double EstimateRangeSelectivity(const std::string& attribute, double lo,
                                  double hi) const;

  /// Estimated fraction of the whole key space the attribute occupies
  /// (drives "how many peers does a scan touch").
  double EstimateAttributeSpread(const std::string& attribute,
                                 uint64_t total_triples) const;

  /// Records a known peer path (own path at BuildLocalStats; merged paths
  /// arrive via gossip). The sample is capped; it powers
  /// EstimatePeersInRange.
  void RecordPeerPath(const pgrid::Key& path);

  /// \brief Estimated number of peers whose subtree intersects `range`.
  ///
  /// Order-preserving hashing makes "how many peers host this key region"
  /// depend on the *trie shape*, not the data share: a balanced trie
  /// spreads peers uniformly over the key space while an adaptive trie
  /// concentrates them where data is dense. The gossiped peer-path sample
  /// observes the actual shape: the estimate is the intersecting fraction
  /// of the sample scaled to the peer count.
  double EstimatePeersInRange(const pgrid::KeyRange& range) const;

  size_t peer_path_sample_size() const { return peer_paths_.size(); }

  /// The sampled peer paths (sorted, deduplicated). The
  /// batched envelope executor splits Migrate-join partitions at sampled
  /// region boundaries, so fan-out follows the actual trie shape.
  const std::vector<pgrid::Key>& peer_paths() const { return peer_paths_; }

  /// Total triples across attributes.
  uint64_t TotalTriples() const;

  size_t attribute_count() const { return attributes_.size(); }

  /// Serialization for kStatsGossip payloads.
  std::string EncodeToString() const;
  static Result<StatsCatalog> DecodeFromString(std::string_view bytes);

 private:
  static constexpr size_t kMaxPathSample = 512;

  NetworkStats network_;
  std::map<std::string, AttrStats> attributes_;
  std::vector<pgrid::Key> peer_paths_;  // Sorted, deduplicated sample.
};

}  // namespace cost
}  // namespace unistore

#endif  // UNISTORE_COST_STATS_H_
