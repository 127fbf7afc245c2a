#include "plan/optimizer.h"

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/datagen.h"
#include "vql/parser.h"

namespace unistore {
namespace plan {
namespace {

cost::StatsCatalog MakeCatalog() {
  cost::StatsCatalog catalog;
  catalog.network().peer_count = 64;
  catalog.network().trie_depth = 6;
  catalog.network().hop_latency_us = 1000;
  auto add = [&catalog](const std::string& attr, uint64_t count,
                        uint64_t distinct, double lo = 0, double hi = 0) {
    cost::AttrStats s;
    s.triple_count = count;
    s.distinct_values = distinct;
    if (hi > lo) {
      s.numeric_min = lo;
      s.numeric_max = hi;
      s.has_numeric_range = true;
    }
    catalog.RecordAttribute(attr, s);
  };
  add("name", 1000, 1000);
  add("age", 1000, 60, 20, 80);
  add("num_of_pubs", 1000, 25, 0, 25);
  add("series", 30, 5);
  add("confname", 30, 30);
  return catalog;
}

vql::Query Q(const std::string& text) {
  auto q = vql::Parse(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(MakeCatalog()) {}

  Optimizer Make(PlannerOptions options = {}) {
    return Optimizer(&catalog_, options);
  }

  cost::StatsCatalog catalog_;
};

TEST_F(OptimizerTest, SinglePatternBecomesRangeScan) {
  auto plan = Make().Plan(Q("SELECT ?n WHERE { (?a,'name',?n) }"));
  ASSERT_TRUE(plan.ok());
  // Project over PatternScan.
  ASSERT_EQ((*plan)->kind, algebra::LogicalOpKind::kProject);
  const auto& scan = *(*plan)->children[0];
  EXPECT_EQ(scan.kind, algebra::LogicalOpKind::kPatternScan);
  EXPECT_EQ(scan.access, AccessPath::kAttrRangeScan);
}

TEST_F(OptimizerTest, SubjectLiteralUsesOidLookup) {
  auto plan = Make().Plan(Q("SELECT ?n WHERE { ('person-1','name',?n) }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->children[0]->access, AccessPath::kOidLookup);
}

TEST_F(OptimizerTest, AttrAndObjectLiteralUsesExactLookup) {
  auto plan = Make().Plan(Q("SELECT ?a WHERE { (?a,'age',30) }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->children[0]->access, AccessPath::kAttrValueLookup);
}

TEST_F(OptimizerTest, ObjectLiteralWithFreeAttrUsesValueIndex) {
  auto plan = Make().Plan(Q("SELECT ?a,?p WHERE { (?a,?p,'icde') }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->children[0]->access, AccessPath::kValueLookup);
}

TEST_F(OptimizerTest, RangeFilterIsPushedIntoScan) {
  auto plan = Make().Plan(
      Q("SELECT ?a WHERE { (?a,'age',?g) FILTER ?g >= 30 AND ?g >= 20 }"));
  ASSERT_TRUE(plan.ok());
  // Plan: Project > Filter(AND...) > Scan; both conjuncts are pushed.
  EXPECT_NE((*plan)->ToString().find("in[30,+inf]"), std::string::npos)
      << (*plan)->ToString();
  // Separate single-comparison filters are pushed too:
  auto plan2 = Make().Plan(
      Q("SELECT ?a WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g < 50 }"));
  ASSERT_TRUE(plan2.ok());
  const PhysicalOp* node = plan2->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->object_lo, triple::Value::Int(30));
  EXPECT_EQ(node->object_hi, triple::Value::Int(50));
}

TEST_F(OptimizerTest, AndConjunctsArePushedButOrAndNotAreNot) {
  // The query_mix range class: one FILTER holding an AND.
  auto plan = Make().Plan(Q(
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 40 AND ?g <= 42 }"));
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("in[40,42]"), std::string::npos) << text;
  // The residual filter stays.
  EXPECT_NE(text.find("Filter"), std::string::npos) << text;

  for (const char* query :
       {"SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= 40 OR ?g <= 42 }",
        "SELECT ?g WHERE { (?a,'age',?g) FILTER NOT (?g >= 40 AND ?g <= 42) "
        "}"}) {
    auto unsplit = Make().Plan(Q(query));
    ASSERT_TRUE(unsplit.ok()) << query;
    text = (*unsplit)->ToString();
    EXPECT_EQ(text.find("in["), std::string::npos) << query << "\n" << text;
    EXPECT_NE(text.find("Filter"), std::string::npos) << query;
  }
}

TEST_F(OptimizerTest, EqualityFilterTightensBothBounds) {
  auto plan =
      Make().Plan(Q("SELECT ?a WHERE { (?a,'age',?g) FILTER ?g = 42 }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* node = plan->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->object_lo, triple::Value::Int(42));
  EXPECT_EQ(node->object_hi, triple::Value::Int(42));
}

TEST_F(OptimizerTest, EdistFilterBecomesSimilarityScan) {
  auto plan = Make().Plan(
      Q("SELECT ?c WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 3 }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* node = plan->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_TRUE(node->access == AccessPath::kSimilarityQGram ||
              node->access == AccessPath::kSimilarityNaive);
  EXPECT_EQ(node->sim_target, "ICDE");
  EXPECT_EQ(node->sim_max_distance, 2u);  // < 3  ==  <= 2
}

TEST_F(OptimizerTest, ForcedSimilarityPathIsRespected) {
  PlannerOptions options;
  options.force_similarity_path = AccessPath::kSimilarityNaive;
  auto plan = Make(options).Plan(
      Q("SELECT ?c WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 2 }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* node = plan->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->access, AccessPath::kSimilarityNaive);
}

// The pattern scan of a single-pattern plan.
const PhysicalOp& OnlyScan(const PhysicalPlan& plan) {
  const PhysicalOp* node = plan.get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  return *node;
}

TEST_F(OptimizerTest, ContainsFilterBecomesQGramScan) {
  Optimizer optimizer = Make();
  auto plan = optimizer.Plan(Q(
      "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'ranking' }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->ToString(),
            "Project [?p,?t]\n"
            "  Filter [?t CONTAINS 'ranking']\n"
            "    PatternScan[SimilarityQGram] (?p,'title',?t) "
            "contains='ranking'\n");
  // Priced as one posting lookup.
  const PhysicalOp& scan = OnlyScan(*plan);
  EXPECT_EQ(scan.estimated_cost.messages,
            optimizer.cost_model().Lookup().messages);
  EXPECT_EQ(scan.PostingGrams(), std::vector<std::string>{"nki"});
}

TEST_F(OptimizerTest, ContainsWithoutAnInteriorGramStaysOnTheScan) {
  // Shorter than q: no gram lies inside the needle.
  auto short_needle = Make().Plan(
      Q("SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'in' }"));
  ASSERT_TRUE(short_needle.ok());
  EXPECT_EQ(OnlyScan(*short_needle).access, AccessPath::kAttrRangeScan);
  EXPECT_TRUE(OnlyScan(*short_needle).contains.empty());
  // The variable inside the literal: not a restriction on the scan.
  auto reversed = Make().Plan(Q(
      "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER 'ranking' CONTAINS ?t }"));
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(OnlyScan(*reversed).access, AccessPath::kAttrRangeScan);
}

TEST_F(OptimizerTest, ScanTakesOneQGramRestriction) {
  auto plan = Make().Plan(
      Q("SELECT ?c WHERE { (?c,'series',?s) FILTER edist(?s,'SIGMOD') < 2 "
        "AND ?s CONTAINS 'GMO' }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp& scan = OnlyScan(*plan);
  EXPECT_EQ(scan.sim_target, "SIGMOD");
  EXPECT_TRUE(scan.contains.empty());
}

TEST_F(OptimizerTest, ContainsScanIsSizedLikeASimilarityScan) {
  // Neither attribute is in the catalog; the restricted one goes first.
  auto plan = Make().Plan(
      Q("SELECT ?t,?c WHERE { (?p,'published_in',?c) (?p,'title',?t) "
        "FILTER ?t CONTAINS 'ranking' }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* join = plan->get();
  while (join->kind != algebra::LogicalOpKind::kJoin) {
    join = join->children[0].get();
  }
  EXPECT_EQ(join->children[0]->pattern.predicate.literal.AsString(), "title");
}

TEST_F(OptimizerTest, NoPostingsPlansTheScan) {
  PlannerOptions options;
  options.qgram_postings = false;
  auto contains = Make(options).Plan(Q(
      "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'ranking' }"));
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ(OnlyScan(*contains).access, AccessPath::kSimilarityNaive);
  auto edist = Make(options).Plan(
      Q("SELECT ?c WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 2 }"));
  ASSERT_TRUE(edist.ok());
  EXPECT_EQ(OnlyScan(*edist).access, AccessPath::kSimilarityNaive);
}

TEST_F(OptimizerTest, SharedPostingKeysPlanTheScan) {
  // "g#has_published#" fills the 16 characters a key keeps: every gram of
  // the attribute shares one posting key.
  auto plan = Make().Plan(Q(
      "SELECT ?a,?t WHERE { (?a,'has_published',?t) "
      "FILTER ?t CONTAINS 'ranking' }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(OnlyScan(*plan).access, AccessPath::kSimilarityNaive);
}

TEST_F(OptimizerTest, VacuousEdistPlansTheScan) {
  // k = 2 on a 4-character target: the 6 grams cannot cover 2*3+1.
  auto plan = Make().Plan(
      Q("SELECT ?c WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 3 }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(OnlyScan(*plan).access, AccessPath::kSimilarityNaive);
}

TEST_F(OptimizerTest, ForcedNaivePathScansForContains) {
  PlannerOptions options;
  options.force_similarity_path = AccessPath::kSimilarityNaive;
  auto plan = Make(options).Plan(Q(
      "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'ranking' }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(OnlyScan(*plan).ToString(),
            "PatternScan[SimilarityNaive] (?p,'title',?t) shower "
            "contains='ranking'\n");
}

TEST_F(OptimizerTest, JoinOrderStartsWithMostSelectivePattern) {
  // 'series' has 30 triples, 'name' has 1000: the join should scan series
  // first (left-most leaf of the left-deep tree).
  auto plan = Make().Plan(
      Q("SELECT ?n WHERE { (?a,'name',?n) (?a,'series',?s) }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* join = plan->get();
  while (join->kind != algebra::LogicalOpKind::kJoin) {
    join = join->children[0].get();
  }
  const PhysicalOp* left = join->children[0].get();
  EXPECT_EQ(left->pattern.predicate.literal.AsString(), "series");
}

TEST_F(OptimizerTest, PaperQueryPlansAllEightPatterns) {
  const char* text = R"(
    SELECT ?name,?age,?cnt
    WHERE {(?a,'name',?name) (?a,'age',?age)
           (?a,'num_of_pubs',?cnt)
           (?a,'has_published',?title) (?p,'title',?title)
           (?p,'published_in',?conf) (?c,'confname',?conf)
           (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
    }
    ORDER BY SKYLINE OF ?age MIN, ?cnt MAX)";
  auto plan = Make().Plan(Q(text));
  ASSERT_TRUE(plan.ok());
  // Count scans and joins.
  int scans = 0, joins = 0, skylines = 0;
  std::function<void(const PhysicalOp&)> walk = [&](const PhysicalOp& op) {
    if (op.kind == algebra::LogicalOpKind::kPatternScan) ++scans;
    if (op.kind == algebra::LogicalOpKind::kJoin) ++joins;
    if (op.kind == algebra::LogicalOpKind::kSkyline) ++skylines;
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_EQ(scans, 8);
  EXPECT_EQ(joins, 7);
  EXPECT_EQ(skylines, 1);
}

TEST_F(OptimizerTest, TopNPushdownAnnotatesScan) {
  auto plan = Make().Plan(
      Q("SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT 5"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* node = plan->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->scan_limit, 5u);
  EXPECT_EQ(node->range_strategy, triple::RangeStrategy::kSequential);
}

TEST_F(OptimizerTest, NoTopNPushdownForDescOrDisabled) {
  auto desc = Make().Plan(
      Q("SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g DESC LIMIT 5"));
  ASSERT_TRUE(desc.ok());
  const PhysicalOp* node = desc->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->scan_limit, 0u);

  PlannerOptions options;
  options.enable_topn_pushdown = false;
  auto off = Make(options).Plan(
      Q("SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT 5"));
  ASSERT_TRUE(off.ok());
  node = off->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->scan_limit, 0u);
}

TEST_F(OptimizerTest, TopNPushdownPassesImpliedFilters) {
  auto scan_limit = [this](const std::string& query) -> uint32_t {
    auto plan = Make().Plan(Q(query));
    EXPECT_TRUE(plan.ok()) << query;
    if (!plan.ok()) return 0;
    const PhysicalOp* node = plan->get();
    while (node->kind != algebra::LogicalOpKind::kPatternScan) {
      node = node->children[0].get();
    }
    return node->scan_limit;
  };
  // Non-strict bounds and equality on the order variable are implied by
  // the scan's covering range.
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= 40 } "
                       "ORDER BY ?g LIMIT 5"),
            5u);
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= 40 AND "
                       "?g <= 50 FILTER ?g = 45 } ORDER BY ?g LIMIT 5"),
            5u);
  // A strict bound, or a predicate on another variable, keeps the scan.
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?g > 40 } "
                       "ORDER BY ?g LIMIT 5"),
            0u);
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= 40 AND "
                       "?g < 50 } ORDER BY ?g LIMIT 5"),
            0u);
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?a = "
                       "'person-1' } ORDER BY ?g LIMIT 5"),
            0u);
  EXPECT_EQ(scan_limit("SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= 40 "
                       "FILTER ?a = 'person-1' } ORDER BY ?g LIMIT 5"),
            0u);
}

TEST_F(OptimizerTest, MappingsExpandScanAttributes) {
  triple::MappingSet mappings;
  mappings.Add("phone", "telephone");
  PlannerOptions options;
  options.apply_mappings = true;
  options.mappings = &mappings;
  auto plan = Make(options).Plan(Q("SELECT ?p WHERE { (?a,'phone',?p) }"));
  ASSERT_TRUE(plan.ok());
  const PhysicalOp* node = plan->get();
  while (node->kind != algebra::LogicalOpKind::kPatternScan) {
    node = node->children[0].get();
  }
  EXPECT_EQ(node->attributes,
            (std::vector<std::string>{"phone", "telephone"}));
}

TEST_F(OptimizerTest, AdaptiveJoinStrategyDependsOnCardinality) {
  Optimizer optimizer = Make();
  vql::TriplePattern right;
  right.subject = vql::Term::Var("a");
  right.predicate = vql::Term::Lit(triple::Value::String("series"));
  right.object = vql::Term::Var("s");
  JoinStrategy few = optimizer.ChooseJoinStrategy(1, right);
  JoinStrategy many = optimizer.ChooseJoinStrategy(100000, right);
  EXPECT_EQ(few, JoinStrategy::kProbe);
  EXPECT_EQ(many, JoinStrategy::kMigrate);
}

TEST_F(OptimizerTest, ForcedStrategiesOverrideCost) {
  PlannerOptions options;
  options.force_join_strategy = JoinStrategy::kLocalHash;
  options.force_range_strategy = triple::RangeStrategy::kSequential;
  Optimizer optimizer = Make(options);
  vql::TriplePattern right;
  right.subject = vql::Term::Var("a");
  right.predicate = vql::Term::Lit(triple::Value::String("series"));
  right.object = vql::Term::Var("s");
  EXPECT_EQ(optimizer.ChooseJoinStrategy(1, right),
            JoinStrategy::kLocalHash);
  EXPECT_EQ(optimizer.ChooseRangeStrategy(0.9, 1000),
            triple::RangeStrategy::kSequential);
}

TEST_F(OptimizerTest, PlanPrintingIsStable) {
  auto plan = Make().Plan(
      Q("SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g > 30 }"));
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("Project"), std::string::npos);
  EXPECT_NE(text.find("Join"), std::string::npos);
  EXPECT_NE(text.find("PatternScan"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
}

// The pattern scans of a left-deep plan, in join order.
std::vector<const PhysicalOp*> JoinOrder(const PhysicalOp& op) {
  if (op.kind == algebra::LogicalOpKind::kPatternScan) return {&op};
  std::vector<const PhysicalOp*> order;
  for (const auto& child : op.children) {
    auto sub = JoinOrder(*child);
    order.insert(order.end(), sub.begin(), sub.end());
  }
  return order;
}

std::string JoinOrderText(const PhysicalOp& op) {
  std::string text;
  for (const PhysicalOp* scan : JoinOrder(op)) {
    text += scan->pattern.ToString() + " ";
  }
  return text;
}

const char* kJoinQuery =
    "SELECT ?t,?c WHERE { ('person-7','has_published',?t) (?p,'title',?t) "
    "(?p,'published_in',?c) }";

const char* kSkylineQuery =
    "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
    "(?a,'num_of_pubs',?cnt) (?a,'has_published',?title) "
    "(?p,'title',?title) (?p,'published_in',?conf) (?c,'confname',?conf) "
    "(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3} "
    "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";

TEST(OptimizerPriorTest, UnknownScanNeverBelowBoundSubject) {
  // No statistics at all: the unrestricted scans must rank after the OID
  // lookup, and each later pattern is scored with the variables the
  // earlier ones bind.
  cost::StatsCatalog empty;
  Optimizer optimizer(&empty, {});
  auto plan = optimizer.Plan(
      Q("SELECT ?t,?c WHERE { (?p,'title',?t) (?p,'published_in',?c) "
        "('person-7','has_published',?t) }"));
  ASSERT_TRUE(plan.ok());
  auto order = JoinOrder(**plan);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->access, AccessPath::kOidLookup);
  EXPECT_EQ(order[1]->pattern.predicate.literal.AsString(), "title");
  EXPECT_EQ(order[2]->pattern.predicate.literal.AsString(), "published_in");
}

TEST(OptimizerPriorTest, RestrictedUnknownScanPrecedesUnrestricted) {
  cost::StatsCatalog empty;
  Optimizer optimizer(&empty, {});
  auto plan = optimizer.Plan(
      Q("SELECT ?n WHERE { (?c,'name',?n) (?c,'series',?s) "
        "FILTER edist(?s,'ICDE') < 3 }"));
  ASSERT_TRUE(plan.ok());
  auto order = JoinOrder(**plan);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0]->pattern.predicate.literal.AsString(), "series");
}

TEST(OptimizerClusterTest, JoinOrderIsTheSameAtEveryInitiator) {
  // The query_mix deployment: most initiators' catalogs know no attribute
  // at all, a few know most of them.
  core::ClusterOptions options;
  options.peers = 256;
  options.replication = 2;
  options.seed = 2007;
  core::Cluster cluster(options);
  core::BibliographyOptions data;
  data.authors = 500;
  data.publications_per_author = 2;
  data.typo_probability = 0.2;
  data.seed = 7;
  ASSERT_TRUE(cluster
                  .BulkLoadTuplesSync(
                      0, core::GenerateBibliography(data).AllTuples())
                  .ok());
  cluster.RefreshStats();

  auto join0 = cluster.node(0).PlanOnly(kJoinQuery);
  auto sky0 = cluster.node(0).PlanOnly(kSkylineQuery);
  ASSERT_TRUE(join0.ok() && sky0.ok());
  const std::string join_text = (*join0)->ToString();
  const std::string sky_order = JoinOrderText(**sky0);
  EXPECT_EQ(JoinOrder(**join0)[0]->access, AccessPath::kOidLookup)
      << join_text;
  EXPECT_EQ(JoinOrder(**sky0)[0]->pattern.predicate.literal.AsString(),
            "series")
      << sky_order;
  for (net::PeerId via = 1; via < cluster.size(); ++via) {
    auto join = cluster.node(via).PlanOnly(kJoinQuery);
    auto sky = cluster.node(via).PlanOnly(kSkylineQuery);
    ASSERT_TRUE(join.ok() && sky.ok());
    EXPECT_EQ((*join)->ToString(), join_text) << "via " << via;
    EXPECT_EQ(JoinOrderText(**sky), sky_order) << "via " << via;
  }
}

TEST_F(OptimizerTest, EmptyPatternsRejected) {
  vql::Query query;
  query.select_all = true;
  Optimizer optimizer = Make();
  EXPECT_FALSE(optimizer.Plan(query).ok());
}

}  // namespace
}  // namespace plan
}  // namespace unistore
