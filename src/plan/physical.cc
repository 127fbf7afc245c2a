#include "plan/physical.h"

#include <algorithm>

#include "qgram/qgram.h"

namespace unistore {
namespace plan {

std::string_view AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kOidLookup: return "OidLookup";
    case AccessPath::kAttrValueLookup: return "AttrValueLookup";
    case AccessPath::kAttrRangeScan: return "AttrRangeScan";
    case AccessPath::kValueLookup: return "ValueLookup";
    case AccessPath::kFullScan: return "FullScan";
    case AccessPath::kSimilarityQGram: return "SimilarityQGram";
    case AccessPath::kSimilarityNaive: return "SimilarityNaive";
  }
  return "?";
}

std::string_view JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kProbe: return "Probe";
    case JoinStrategy::kMigrate: return "Migrate";
    case JoinStrategy::kLocalHash: return "LocalHash";
  }
  return "?";
}

std::vector<std::string> PhysicalOp::PostingGrams() const {
  const bool substring = !contains.empty();
  const size_t k = substring ? 0 : sim_max_distance;
  return qgram::SelectGrams(substring ? contains : sim_target,
                            qgram::kDefaultQ, k * qgram::kDefaultQ + 1,
                            /*interior_only=*/substring);
}

bool PhysicalOp::PostingKeysPerGram() const {
  return std::all_of(attributes.begin(), attributes.end(),
                     [](const std::string& attr) {
                       return qgram::GramsHaveOwnKeys(attr, qgram::kDefaultQ);
                     });
}

std::string PhysicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad + std::string(algebra::LogicalOpKindName(kind));
  switch (kind) {
    case algebra::LogicalOpKind::kPatternScan: {
      line += "[" + std::string(AccessPathName(access)) + "] " +
              pattern.ToString();
      if (access == AccessPath::kAttrRangeScan ||
          access == AccessPath::kSimilarityNaive) {
        line += (range_strategy == triple::RangeStrategy::kSequential
                     ? " seq"
                     : " shower");
      }
      if (!object_lo.is_null() || !object_hi.is_null()) {
        line += " in[" +
                (object_lo.is_null() ? "-inf" : object_lo.ToDisplayString()) +
                "," +
                (object_hi.is_null() ? "+inf" : object_hi.ToDisplayString()) +
                "]";
      }
      if (!sim_target.empty()) {
        line += " edist<='" + sim_target + "'," +
                std::to_string(sim_max_distance);
      }
      if (!contains.empty()) line += " contains='" + contains + "'";
      if (scan_limit > 0) line += " walk_limit=" + std::to_string(scan_limit);
      if (attributes.size() > 1) {
        line += " attrs={";
        for (size_t i = 0; i < attributes.size(); ++i) {
          if (i) line += ",";
          line += attributes[i];
        }
        line += "}";
      }
      break;
    }
    case algebra::LogicalOpKind::kJoin:
      line += "[" + std::string(JoinStrategyName(join_strategy)) +
              (adaptive ? ",adaptive" : "") + "]";
      break;
    case algebra::LogicalOpKind::kFilter:
      line += " [" + predicate->ToString() + "]";
      break;
    case algebra::LogicalOpKind::kProject: {
      line += " [";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i) line += ",";
        line += "?" + columns[i];
      }
      line += "]";
      break;
    }
    case algebra::LogicalOpKind::kOrderBy:
    case algebra::LogicalOpKind::kTopN: {
      line += " [";
      for (size_t i = 0; i < order_keys.size(); ++i) {
        if (i) line += ",";
        line += "?" + order_keys[i].variable +
                (order_keys[i].direction == vql::SortDirection::kAsc
                     ? " ASC"
                     : " DESC");
      }
      line += "]";
      if (limit.has_value()) line += " n=" + std::to_string(*limit);
      break;
    }
    case algebra::LogicalOpKind::kSkyline: {
      line += " [";
      for (size_t i = 0; i < skyline_keys.size(); ++i) {
        if (i) line += ",";
        line += "?" + skyline_keys[i].variable +
                (skyline_keys[i].direction == vql::SkylineDirection::kMin
                     ? " MIN"
                     : " MAX");
      }
      line += "]";
      break;
    }
    case algebra::LogicalOpKind::kLimit:
      if (limit.has_value()) line += " n=" + std::to_string(*limit);
      break;
  }
  line += "\n";
  for (const auto& child : children) line += child->ToString(indent + 1);
  return line;
}

}  // namespace plan
}  // namespace unistore
