#include "algebra/logical.h"

#include <algorithm>
#include <set>

namespace unistore {
namespace algebra {

std::string LogicalOpKindName(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kPatternScan: return "PatternScan";
    case LogicalOpKind::kJoin: return "Join";
    case LogicalOpKind::kFilter: return "Filter";
    case LogicalOpKind::kProject: return "Project";
    case LogicalOpKind::kOrderBy: return "OrderBy";
    case LogicalOpKind::kTopN: return "TopN";
    case LogicalOpKind::kSkyline: return "Skyline";
    case LogicalOpKind::kLimit: return "Limit";
  }
  return "?";
}

std::vector<std::string> PatternVariables(const vql::TriplePattern& pattern) {
  std::vector<std::string> out;
  for (const vql::Term* term :
       {&pattern.subject, &pattern.predicate, &pattern.object}) {
    if (term->is_variable &&
        std::find(out.begin(), out.end(), term->variable) == out.end()) {
      out.push_back(term->variable);
    }
  }
  return out;
}

std::vector<std::string> SharedVariables(const std::vector<std::string>& a,
                                         const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const auto& v : a) {
    if (std::find(b.begin(), b.end(), v) != b.end()) out.push_back(v);
  }
  return out;
}

std::vector<std::string> LogicalOp::OutputVariables() const {
  switch (kind) {
    case LogicalOpKind::kPatternScan:
      return PatternVariables(pattern);
    case LogicalOpKind::kProject:
      return columns;
    case LogicalOpKind::kJoin: {
      std::vector<std::string> out = children[0]->OutputVariables();
      for (const auto& v : children[1]->OutputVariables()) {
        if (std::find(out.begin(), out.end(), v) == out.end()) {
          out.push_back(v);
        }
      }
      return out;
    }
    default:
      return children.empty() ? std::vector<std::string>{}
                              : children[0]->OutputVariables();
  }
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad + LogicalOpKindName(kind);
  switch (kind) {
    case LogicalOpKind::kPatternScan: {
      line += " " + pattern.ToString();
      if (!object_lo.is_null() || !object_hi.is_null()) {
        line += " object in [" +
                (object_lo.is_null() ? "-inf" : object_lo.ToDisplayString()) +
                ", " +
                (object_hi.is_null() ? "+inf" : object_hi.ToDisplayString()) +
                "]";
      }
      if (!sim_target.empty()) {
        line += " edist(object,'" + sim_target +
                "')<=" + std::to_string(sim_max_distance);
      }
      if (!contains.empty()) line += " object CONTAINS '" + contains + "'";
      break;
    }
    case LogicalOpKind::kFilter:
      line += " [" + predicate->ToString() + "]";
      break;
    case LogicalOpKind::kProject: {
      line += " [";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i) line += ",";
        line += "?" + columns[i];
      }
      line += "]";
      break;
    }
    case LogicalOpKind::kJoin: {
      auto shared = SharedVariables(children[0]->OutputVariables(),
                                    children[1]->OutputVariables());
      line += " on [";
      for (size_t i = 0; i < shared.size(); ++i) {
        if (i) line += ",";
        line += "?" + shared[i];
      }
      line += "]";
      break;
    }
    case LogicalOpKind::kOrderBy:
    case LogicalOpKind::kTopN: {
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
    case LogicalOpKind::kSkyline: {
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
    case LogicalOpKind::kLimit:
      if (limit.has_value()) line += " n=" + std::to_string(*limit);
      break;
  }
  line += "\n";
  for (const auto& child : children) line += child->ToString(indent + 1);
  return line;
}

LogicalPlan MakePatternScan(vql::TriplePattern pattern) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kPatternScan;
  op->pattern = std::move(pattern);
  return op;
}

LogicalPlan MakeJoin(LogicalPlan left, LogicalPlan right) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kJoin;
  op->children = {std::move(left), std::move(right)};
  return op;
}

LogicalPlan MakeFilter(vql::ExprPtr predicate, LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kFilter;
  op->predicate = std::move(predicate);
  op->children = {std::move(input)};
  return op;
}

LogicalPlan MakeProject(std::vector<std::string> columns, LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kProject;
  op->columns = std::move(columns);
  op->children = {std::move(input)};
  return op;
}

LogicalPlan MakeOrderBy(std::vector<vql::OrderKey> keys, LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kOrderBy;
  op->order_keys = std::move(keys);
  op->children = {std::move(input)};
  return op;
}

LogicalPlan MakeTopN(std::vector<vql::OrderKey> keys, uint64_t n,
                     LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kTopN;
  op->order_keys = std::move(keys);
  op->limit = n;
  op->children = {std::move(input)};
  return op;
}

LogicalPlan MakeSkyline(std::vector<vql::SkylineKey> keys,
                        LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kSkyline;
  op->skyline_keys = std::move(keys);
  op->children = {std::move(input)};
  return op;
}

LogicalPlan MakeLimit(uint64_t n, LogicalPlan input) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kLimit;
  op->limit = n;
  op->children = {std::move(input)};
  return op;
}

}  // namespace algebra
}  // namespace unistore
