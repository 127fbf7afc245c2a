#include "cost/stats.h"

#include <algorithm>

namespace unistore {
namespace cost {

void AttrStats::MergeFrom(const AttrStats& other) {
  if (other.triple_count == 0) return;
  if (triple_count == 0) {
    *this = other;
    return;
  }
  // Distinct values cannot be summed exactly; use max as a lower bound.
  distinct_values = std::max(distinct_values, other.distinct_values);
  if (other.has_numeric_range) {
    if (has_numeric_range) {
      numeric_min = std::min(numeric_min, other.numeric_min);
      numeric_max = std::max(numeric_max, other.numeric_max);
    } else {
      numeric_min = other.numeric_min;
      numeric_max = other.numeric_max;
      has_numeric_range = true;
    }
  }
  avg_string_length =
      (avg_string_length * static_cast<double>(triple_count) +
       other.avg_string_length * static_cast<double>(other.triple_count)) /
      static_cast<double>(triple_count + other.triple_count);
  // Counts reported for different peer paths cover disjoint partitions
  // (replicas of one path are merged once: StatsCatalog::MergeContribution).
  triple_count += other.triple_count;
}

void AttrStats::Encode(BufferWriter* w) const {
  w->PutVarint(triple_count);
  w->PutVarint(distinct_values);
  w->PutDouble(numeric_min);
  w->PutDouble(numeric_max);
  w->PutBool(has_numeric_range);
  w->PutDouble(avg_string_length);
}

Result<AttrStats> AttrStats::Decode(BufferReader* r) {
  AttrStats s;
  UNISTORE_ASSIGN_OR_RETURN(s.triple_count, r->GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(s.distinct_values, r->GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(s.numeric_min, r->GetDouble());
  UNISTORE_ASSIGN_OR_RETURN(s.numeric_max, r->GetDouble());
  UNISTORE_ASSIGN_OR_RETURN(s.has_numeric_range, r->GetBool());
  UNISTORE_ASSIGN_OR_RETURN(s.avg_string_length, r->GetDouble());
  return s;
}

void StatsCatalog::RecordAttribute(const std::string& attribute,
                                   const AttrStats& stats) {
  attributes_[attribute].MergeFrom(stats);
}

void StatsCatalog::MergeFrom(const StatsCatalog& other) {
  for (const auto& [attr, stats] : other.attributes_) {
    attributes_[attr].MergeFrom(stats);
  }
  for (const auto& path : other.peer_paths_) RecordPeerPath(path);
  network_.peer_count = std::max(network_.peer_count,
                                 other.network_.peer_count);
  network_.trie_depth = std::max(network_.trie_depth,
                                 other.network_.trie_depth);
}

void StatsCatalog::MergeContribution(const StatsCatalog& contribution) {
  const auto& paths = contribution.peer_paths_;
  const bool replica =
      !paths.empty() &&
      std::all_of(paths.begin(), paths.end(), [this](const pgrid::Key& p) {
        return std::binary_search(peer_paths_.begin(), peer_paths_.end(), p);
      });
  if (!replica) MergeFrom(contribution);
}

void StatsCatalog::RecordPeerPath(const pgrid::Key& path) {
  if (peer_paths_.size() >= kMaxPathSample) return;
  auto it = std::lower_bound(peer_paths_.begin(), peer_paths_.end(), path);
  if (it != peer_paths_.end() && *it == path) return;
  peer_paths_.insert(it, path);
}

double StatsCatalog::EstimatePeersInRange(
    const pgrid::KeyRange& range) const {
  if (peer_paths_.empty()) {
    // No shape information: assume peers uniform over the key space and
    // derive the fraction from the range width (first 52 bits).
    auto frac = [](const pgrid::Key& key) {
      double value = 0, weight = 0.5;
      for (size_t i = 0; i < key.size() && i < 52; ++i) {
        if (key.bit(i)) value += weight;
        weight /= 2;
      }
      return value;
    };
    double width = std::max(0.0, frac(range.hi) - frac(range.lo));
    return std::max(1.0, width * network_.peer_count);
  }
  size_t intersecting = 0;
  for (const pgrid::Key& path : peer_paths_) {
    if (range.IntersectsPrefix(path, pgrid::kKeyBits)) ++intersecting;
  }
  double fraction = static_cast<double>(intersecting) /
                    static_cast<double>(peer_paths_.size());
  return std::max(1.0, fraction * network_.peer_count);
}

AttrStats StatsCatalog::Attribute(const std::string& attribute) const {
  auto it = attributes_.find(attribute);
  return it == attributes_.end() ? AttrStats{} : it->second;
}

double StatsCatalog::EstimateRangeSelectivity(const std::string& attribute,
                                              double lo, double hi) const {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end() || !it->second.has_numeric_range) return 1.0;
  const AttrStats& s = it->second;
  double width = s.numeric_max - s.numeric_min;
  if (width <= 0) return 1.0;
  double olo = std::max(lo, s.numeric_min);
  double ohi = std::min(hi, s.numeric_max);
  if (ohi < olo) return 0.0;
  return std::clamp((ohi - olo) / width, 0.0, 1.0);
}

double StatsCatalog::EstimateAttributeSpread(const std::string& attribute,
                                             uint64_t total_triples) const {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end() || total_triples == 0) return 1.0;
  // A#v entries of one attribute occupy a contiguous key region whose
  // share of peers is roughly its share of triples (3 indexes => each
  // attribute's A#v partition holds count/total of one third of data;
  // the one-third factors cancel).
  return std::clamp(static_cast<double>(it->second.triple_count) /
                        static_cast<double>(total_triples),
                    0.0, 1.0);
}

uint64_t StatsCatalog::TotalTriples() const {
  uint64_t total = 0;
  for (const auto& [attr, stats] : attributes_) total += stats.triple_count;
  return total;
}

std::string StatsCatalog::EncodeToString() const {
  BufferWriter w;
  w.PutDouble(network_.peer_count);
  w.PutDouble(network_.trie_depth);
  w.PutDouble(network_.hop_latency_us);
  w.PutVarint(attributes_.size());
  for (const auto& [attr, stats] : attributes_) {
    w.PutString(attr);
    stats.Encode(&w);
  }
  w.PutVarint(peer_paths_.size());
  for (const pgrid::Key& path : peer_paths_) pgrid::EncodeKey(path, &w);
  return w.Release();
}

Result<StatsCatalog> StatsCatalog::DecodeFromString(std::string_view bytes) {
  BufferReader r(bytes);
  StatsCatalog catalog;
  UNISTORE_ASSIGN_OR_RETURN(catalog.network_.peer_count, r.GetDouble());
  UNISTORE_ASSIGN_OR_RETURN(catalog.network_.trie_depth, r.GetDouble());
  UNISTORE_ASSIGN_OR_RETURN(catalog.network_.hop_latency_us, r.GetDouble());
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 1000000) return Status::Corruption("oversized stats catalog");
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(std::string attr, r.GetString());
    UNISTORE_ASSIGN_OR_RETURN(AttrStats stats, AttrStats::Decode(&r));
    catalog.attributes_.emplace(std::move(attr), stats);
  }
  UNISTORE_ASSIGN_OR_RETURN(uint64_t paths, r.GetVarint());
  if (paths > kMaxPathSample) return Status::Corruption("oversized sample");
  for (uint64_t i = 0; i < paths; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(pgrid::Key path, pgrid::DecodeKey(&r));
    catalog.RecordPeerPath(path);
  }
  return catalog;
}

}  // namespace cost
}  // namespace unistore
