#include "exec/expr_eval.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "vql/parser.h"

namespace unistore {
namespace exec {
namespace {

using triple::Value;

Binding B(std::initializer_list<std::pair<std::string, Value>> items) {
  Binding b;
  for (auto& [k, v] : items) b.emplace(k, v);
  return b;
}

vql::ExprPtr E(const std::string& text) {
  auto e = vql::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return *e;
}

TEST(ExprEvalTest, Comparisons) {
  Binding b = B({{"x", Value::Int(5)}, {"s", Value::String("icde")}});
  EXPECT_TRUE(EvaluatePredicate(*E("?x = 5"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x != 4"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x < 6"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x <= 5"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x > 4"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x >= 5"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("?x > 5"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?s = 'icde'"), b));
}

TEST(ExprEvalTest, LogicalConnectives) {
  Binding b = B({{"x", Value::Int(5)}});
  EXPECT_TRUE(EvaluatePredicate(*E("?x > 1 AND ?x < 10"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("?x > 1 AND ?x > 10"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?x > 10 OR ?x = 5"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("NOT ?x > 10"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("NOT (?x = 5)"), b));
}

TEST(ExprEvalTest, StringPredicates) {
  Binding b = B({{"s", Value::String("ICDE 2006 - Workshops")}});
  EXPECT_TRUE(EvaluatePredicate(*E("?s CONTAINS '2006'"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("?s CONTAINS 'vldb'"), b));
  EXPECT_TRUE(EvaluatePredicate(*E("?s PREFIX 'ICDE'"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("?s PREFIX 'VLDB'"), b));
}

TEST(ExprEvalTest, Functions) {
  Binding b = B({{"s", Value::String("ICDEE")}});
  auto edist = EvaluateExpr(*E("edist(?s,'ICDE')"), b);
  ASSERT_TRUE(edist.ok());
  EXPECT_EQ(*edist, Value::Int(1));
  auto length = EvaluateExpr(*E("length(?s)"), b);
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(*length, Value::Int(5));
  auto lower = EvaluateExpr(*E("lower(?s)"), b);
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(*lower, Value::String("icdee"));
}

TEST(ExprEvalTest, ThePaperFilter) {
  // edist(?sr,'ICDE') < 3 keeps typo'd series names, drops foreign ones.
  auto filter = E("edist(?sr,'ICDE') < 3");
  EXPECT_TRUE(EvaluatePredicate(*filter, B({{"sr", Value::String("ICDE")}})));
  EXPECT_TRUE(EvaluatePredicate(*filter, B({{"sr", Value::String("ICD")}})));
  EXPECT_TRUE(EvaluatePredicate(*filter, B({{"sr", Value::String("IDCE")}})));
  EXPECT_FALSE(
      EvaluatePredicate(*filter, B({{"sr", Value::String("SIGMOD")}})));
}

TEST(ExprEvalTest, ErrorsEliminateBinding) {
  // Unbound variable -> false, not a crash (SPARQL error semantics).
  EXPECT_FALSE(EvaluatePredicate(*E("?ghost > 1"), Binding{}));
  // Type error in a function -> false.
  Binding b = B({{"x", Value::Int(5)}});
  EXPECT_FALSE(EvaluatePredicate(*E("edist(?x,'a') < 2"), b));
  EXPECT_FALSE(EvaluatePredicate(*E("?x CONTAINS 'a'"), b));
}

TEST(ExprEvalTest, CrossTypeComparisonIsTotalOrder) {
  Binding b = B({{"n", Value::Int(5)}, {"s", Value::String("a")}});
  // Numbers sort before strings in the value order.
  EXPECT_TRUE(EvaluatePredicate(*E("?n < ?s"), b));
}

TEST(BindingTest, CompatibleAndMerge) {
  Binding a = B({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Binding b = B({{"y", Value::Int(2)}, {"z", Value::Int(3)}});
  Binding c = B({{"y", Value::Int(9)}});
  EXPECT_TRUE(Compatible(a, b));
  EXPECT_FALSE(Compatible(a, c));
  Binding m = Merge(a, b);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("z"), Value::Int(3));
}

TEST(BindingTest, MatchPatternUnifiesAndRejects) {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Lit(Value::String("age"));
  p.object = vql::Term::Var("g");

  auto matched = MatchPattern(p, "p1", "age", Value::Int(30), {});
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(matched->at("a"), Value::String("p1"));
  EXPECT_EQ(matched->at("g"), Value::Int(30));

  EXPECT_FALSE(MatchPattern(p, "p1", "name", Value::Int(30), {}).has_value());

  // Already-bound variable must agree.
  Binding base = B({{"a", Value::String("p2")}});
  EXPECT_FALSE(MatchPattern(p, "p1", "age", Value::Int(30), base).has_value());
  EXPECT_TRUE(MatchPattern(p, "p2", "age", Value::Int(30), base).has_value());
}

TEST(BindingTest, RepeatedVariableMustAgree) {
  // (?x,'links',?x): subject and object must be equal.
  vql::TriplePattern p;
  p.subject = vql::Term::Var("x");
  p.predicate = vql::Term::Lit(Value::String("links"));
  p.object = vql::Term::Var("x");
  EXPECT_TRUE(
      MatchPattern(p, "n1", "links", Value::String("n1"), {}).has_value());
  EXPECT_FALSE(
      MatchPattern(p, "n1", "links", Value::String("n2"), {}).has_value());
}

// Copy-then-unify: the definition MatchPattern must agree with.
std::optional<Binding> ReferenceMatch(const vql::TriplePattern& pattern,
                                      const std::string& oid,
                                      const std::string& attribute,
                                      const Value& value,
                                      const Binding& base) {
  Binding binding = base;
  auto unify = [&binding](const vql::Term& term, const Value& actual) {
    if (!term.is_variable) return term.literal == actual;
    auto it = binding.find(term.variable);
    if (it != binding.end()) return it->second == actual;
    binding.emplace(term.variable, actual);
    return true;
  };
  if (!unify(pattern.subject, Value::String(oid)) ||
      !unify(pattern.predicate, Value::String(attribute)) ||
      !unify(pattern.object, value)) {
    return std::nullopt;
  }
  return binding;
}

// Equal bindings with equal value types: 1 and 1.0 compare equal but are
// not the same binding.
bool SameBinding(const Binding& a, const Binding& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.type() != ib->second.type() ||
        ia->second != ib->second) {
      return false;
    }
  }
  return true;
}

TEST(BindingTest, MatchPatternAgreesWithCopyThenUnify) {
  // Few names and values, so literals hit, variables repeat across
  // positions ((?x,?p,?x) and the like) and bases pre-bind them.
  const std::vector<std::string> strings = {"a", "b"};
  const std::vector<Value> values = {Value::String("a"), Value::String("b"),
                                     Value::Int(1), Value::Real(1.0),
                                     Value::Null()};
  const std::vector<std::string> vars = {"x", "y", "p"};
  Rng rng(2024);
  auto pick_term = [&]() {
    if (rng.NextBounded(2) == 0) {
      return vql::Term::Var(vars[rng.NextBounded(vars.size())]);
    }
    return vql::Term::Lit(values[rng.NextBounded(values.size())]);
  };
  size_t matched = 0;
  size_t repeated = 0;
  size_t prebound = 0;
  for (int round = 0; round < 20000; ++round) {
    vql::TriplePattern p;
    p.subject = pick_term();
    p.predicate = pick_term();
    p.object = pick_term();
    Binding base;
    for (const std::string& var : vars) {
      if (rng.NextBounded(3) == 0) {
        base.emplace(var, values[rng.NextBounded(values.size())]);
      }
    }
    base.emplace("other", Value::Int(7));
    const std::string& oid = strings[rng.NextBounded(strings.size())];
    const std::string& attribute = strings[rng.NextBounded(strings.size())];
    const Value& value = values[rng.NextBounded(values.size())];

    const vql::Term* terms[] = {&p.subject, &p.predicate, &p.object};
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        if (terms[i]->is_variable && terms[j]->is_variable &&
            terms[i]->variable == terms[j]->variable) {
          if (base.count(terms[i]->variable) > 0) {
            ++prebound;
          } else {
            ++repeated;
          }
        }
      }
    }

    const auto want = ReferenceMatch(p, oid, attribute, value, base);
    const auto got = MatchPattern(p, oid, attribute, value, base);
    ASSERT_EQ(got.has_value(), want.has_value())
        << p.ToString() << " on (" << oid << ", " << attribute << ", "
        << value.ToDisplayString() << ") under " << BindingToString(base);
    if (!want.has_value()) continue;
    ++matched;
    EXPECT_TRUE(SameBinding(*got, *want))
        << BindingToString(*got) << " vs " << BindingToString(*want);
  }
  // The draw covers the cases that matter: matches, and variables that
  // repeat free or pre-bound.
  EXPECT_GT(matched, 1000u);
  EXPECT_GT(repeated, 1000u);
  EXPECT_GT(prebound, 1000u);
}

TEST(BindingTest, CodecRoundTrip) {
  std::vector<Binding> rows = {
      B({{"a", Value::String("p1")}, {"g", Value::Int(30)}}),
      B({{"x", Value::Real(1.5)}}),
      {},
  };
  BufferWriter w;
  EncodeBindings(rows, &w);
  BufferReader r(w.buffer());
  auto back = DecodeBindings(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].at("g"), Value::Int(30));
  EXPECT_TRUE((*back)[2].empty());
}

TEST(RankingTest, DominanceAndSkyline) {
  std::vector<vql::SkylineKey> keys = {
      {"age", vql::SkylineDirection::kMin},
      {"pubs", vql::SkylineDirection::kMax}};
  Binding young_prolific =
      B({{"age", Value::Int(30)}, {"pubs", Value::Int(20)}});
  Binding old_lazy = B({{"age", Value::Int(60)}, {"pubs", Value::Int(2)}});
  Binding young_lazy = B({{"age", Value::Int(30)}, {"pubs", Value::Int(2)}});

  EXPECT_TRUE(Dominates(young_prolific, old_lazy, keys));
  EXPECT_TRUE(Dominates(young_prolific, young_lazy, keys));
  EXPECT_FALSE(Dominates(young_lazy, young_prolific, keys));
  EXPECT_FALSE(Dominates(young_prolific, young_prolific, keys));

  auto skyline = SkylineOf({young_prolific, old_lazy, young_lazy}, keys);
  ASSERT_EQ(skyline.size(), 1u);
  EXPECT_EQ(skyline[0].at("pubs"), Value::Int(20));
}

TEST(RankingTest, SkylineKeepsIncomparables) {
  std::vector<vql::SkylineKey> keys = {
      {"age", vql::SkylineDirection::kMin},
      {"pubs", vql::SkylineDirection::kMax}};
  // Pareto frontier: younger-with-fewer vs older-with-more.
  Binding a = B({{"age", Value::Int(30)}, {"pubs", Value::Int(5)}});
  Binding b = B({{"age", Value::Int(50)}, {"pubs", Value::Int(20)}});
  auto skyline = SkylineOf({a, b}, keys);
  EXPECT_EQ(skyline.size(), 2u);
}

TEST(RankingTest, SortRowsMultiKey) {
  std::vector<Binding> rows = {
      B({{"g", Value::Int(30)}, {"n", Value::String("b")}}),
      B({{"g", Value::Int(25)}, {"n", Value::String("z")}}),
      B({{"g", Value::Int(30)}, {"n", Value::String("a")}}),
  };
  SortRows(&rows, {{"g", vql::SortDirection::kDesc},
                   {"n", vql::SortDirection::kAsc}});
  EXPECT_EQ(rows[0].at("n"), Value::String("a"));
  EXPECT_EQ(rows[1].at("n"), Value::String("b"));
  EXPECT_EQ(rows[2].at("n"), Value::String("z"));
}

}  // namespace
}  // namespace exec
}  // namespace unistore
