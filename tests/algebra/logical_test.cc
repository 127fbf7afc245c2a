#include "algebra/logical.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "triple/value.h"
#include "vql/ast.h"

namespace unistore {
namespace algebra {
namespace {

using triple::Value;
using vql::Term;
using vql::TriplePattern;

TriplePattern Pat(Term s, Term p, Term o) {
  TriplePattern pattern;
  pattern.subject = std::move(s);
  pattern.predicate = std::move(p);
  pattern.object = std::move(o);
  return pattern;
}

// (?a, 'name', ?name)
TriplePattern NamePattern() {
  return Pat(Term::Var("a"), Term::Lit(Value::String("name")),
             Term::Var("name"));
}

// (?a, 'age', ?age)
TriplePattern AgePattern() {
  return Pat(Term::Var("a"), Term::Lit(Value::String("age")), Term::Var("age"));
}

TEST(LogicalOpKindTest, AllKindsHaveNames) {
  const LogicalOpKind all[] = {
      LogicalOpKind::kPatternScan, LogicalOpKind::kJoin,
      LogicalOpKind::kFilter,      LogicalOpKind::kProject,
      LogicalOpKind::kOrderBy,     LogicalOpKind::kTopN,
      LogicalOpKind::kSkyline,     LogicalOpKind::kLimit,
  };
  for (LogicalOpKind kind : all) {
    EXPECT_NE(LogicalOpKindName(kind), "?");
  }
}

TEST(PatternVariablesTest, CollectsVariablesInPositionOrderWithoutDuplicates) {
  EXPECT_EQ(PatternVariables(NamePattern()),
            (std::vector<std::string>{"a", "name"}));
  // Repeated variable appears once.
  auto self_join = Pat(Term::Var("x"), Term::Var("p"), Term::Var("x"));
  EXPECT_EQ(PatternVariables(self_join),
            (std::vector<std::string>{"x", "p"}));
  // All-literal pattern binds nothing.
  auto ground = Pat(Term::Lit(Value::Int(1)), Term::Lit(Value::String("p")),
                    Term::Lit(Value::Real(2.5)));
  EXPECT_TRUE(PatternVariables(ground).empty());
}

TEST(SharedVariablesTest, IntersectsInLeftOrder) {
  std::vector<std::string> a = {"x", "y", "z"};
  std::vector<std::string> b = {"z", "x"};
  EXPECT_EQ(SharedVariables(a, b), (std::vector<std::string>{"x", "z"}));
  EXPECT_TRUE(SharedVariables(a, {}).empty());
  EXPECT_TRUE(SharedVariables({}, b).empty());
}

TEST(ConstructorTest, PatternScanOutputsPatternVariables) {
  LogicalPlan scan = MakePatternScan(NamePattern());
  ASSERT_EQ(scan->kind, LogicalOpKind::kPatternScan);
  EXPECT_TRUE(scan->children.empty());
  EXPECT_EQ(scan->OutputVariables(),
            (std::vector<std::string>{"a", "name"}));
}

TEST(ConstructorTest, JoinUnionsChildVariables) {
  LogicalPlan join =
      MakeJoin(MakePatternScan(NamePattern()), MakePatternScan(AgePattern()));
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  ASSERT_EQ(join->children.size(), 2u);
  // Union keeps left order, dedups the join variable ?a.
  EXPECT_EQ(join->OutputVariables(),
            (std::vector<std::string>{"a", "name", "age"}));
}

TEST(ConstructorTest, ProjectNarrowsOutput) {
  LogicalPlan plan =
      MakeProject({"name"}, MakePatternScan(NamePattern()));
  ASSERT_EQ(plan->kind, LogicalOpKind::kProject);
  EXPECT_EQ(plan->OutputVariables(), (std::vector<std::string>{"name"}));
}

TEST(ConstructorTest, FilterOrderLimitPassOutputThrough) {
  vql::ExprPtr pred = vql::Expr::Compare(
      vql::CompareOp::kGt, vql::Expr::Variable("age"),
      vql::Expr::Literal(Value::Int(30)));
  LogicalPlan scan = MakePatternScan(AgePattern());
  auto expected = scan->OutputVariables();

  EXPECT_EQ(MakeFilter(pred, scan)->OutputVariables(), expected);
  EXPECT_EQ(MakeOrderBy({{"age", vql::SortDirection::kDesc}}, scan)
                ->OutputVariables(),
            expected);
  EXPECT_EQ(MakeLimit(10, scan)->OutputVariables(), expected);
  EXPECT_EQ(MakeSkyline({{"age", vql::SkylineDirection::kMax}}, scan)
                ->OutputVariables(),
            expected);
}

TEST(ConstructorTest, TopNCarriesKeysAndLimit) {
  LogicalPlan plan = MakeTopN({{"age", vql::SortDirection::kDesc}}, 5,
                              MakePatternScan(AgePattern()));
  ASSERT_EQ(plan->kind, LogicalOpKind::kTopN);
  ASSERT_TRUE(plan->limit.has_value());
  EXPECT_EQ(*plan->limit, 5u);
  ASSERT_EQ(plan->order_keys.size(), 1u);
  EXPECT_EQ(plan->order_keys[0].variable, "age");
}

TEST(ToStringTest, RendersIndentedTree) {
  vql::ExprPtr pred = vql::Expr::Compare(
      vql::CompareOp::kGt, vql::Expr::Variable("age"),
      vql::Expr::Literal(Value::Int(30)));
  LogicalPlan plan = MakeProject(
      {"name"},
      MakeFilter(pred, MakeJoin(MakePatternScan(NamePattern()),
                                MakePatternScan(AgePattern()))));

  EXPECT_EQ(plan->ToString(),
            "Project [?name]\n"
            "  Filter [?age > 30]\n"
            "    Join on [?a]\n"
            "      PatternScan (?a,'name',?name)\n"
            "      PatternScan (?a,'age',?age)\n");
}

TEST(ToStringTest, PatternScanShowsPushedDownRestrictions) {
  LogicalPlan scan = MakePatternScan(AgePattern());
  scan->object_lo = Value::Int(18);
  scan->object_hi = Value::Null();
  std::string range = scan->ToString();
  EXPECT_NE(range.find("object in [18, +inf]"), std::string::npos) << range;

  LogicalPlan sim_scan = MakePatternScan(NamePattern());
  sim_scan->sim_target = "smith";
  sim_scan->sim_max_distance = 2;
  std::string sim = sim_scan->ToString();
  EXPECT_NE(sim.find("edist(object,'smith')<=2"), std::string::npos) << sim;

  LogicalPlan substring_scan = MakePatternScan(NamePattern());
  substring_scan->contains = "mit";
  std::string substring = substring_scan->ToString();
  EXPECT_NE(substring.find("object CONTAINS 'mit'"), std::string::npos)
      << substring;
}

TEST(ToStringTest, TopNAndLimitShowCut) {
  LogicalPlan topn = MakeTopN({{"age", vql::SortDirection::kAsc}}, 3,
                              MakePatternScan(AgePattern()));
  EXPECT_NE(topn->ToString().find("TopN [?age ASC] n=3"), std::string::npos);
  LogicalPlan limit = MakeLimit(7, MakePatternScan(AgePattern()));
  EXPECT_NE(limit->ToString().find("Limit n=7"), std::string::npos);
}

}  // namespace
}  // namespace algebra
}  // namespace unistore
