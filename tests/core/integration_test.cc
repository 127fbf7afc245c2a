// End-to-end integration: full clusters, VQL queries, and an independent
// brute-force reference engine. Every distributed answer must equal the
// reference's answer on the same data.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cluster.h"
#include "core/datagen.h"
#include "exec/expr_eval.h"
#include "qgram/qgram.h"
#include "triple/index.h"
#include "vql/parser.h"

namespace unistore {
namespace core {
namespace {

using exec::Binding;
using triple::Triple;
using triple::Value;

// --- Brute-force reference engine (independent of the executor) -----------

class Reference {
 public:
  void Add(const triple::Tuple& tuple) {
    for (const Triple& t : triple::Decompose(tuple)) triples_.push_back(t);
  }

  std::vector<Binding> Eval(const vql::Query& query) const {
    std::vector<Binding> rows = {Binding{}};
    for (const auto& pattern : query.patterns) {
      std::vector<Binding> next;
      for (const Binding& row : rows) {
        for (const Triple& t : triples_) {
          auto merged =
              exec::MatchPattern(pattern, t.oid, t.attribute, t.value, row);
          if (merged.has_value()) next.push_back(std::move(*merged));
        }
      }
      rows = std::move(next);
    }
    for (const auto& filter : query.filters) {
      std::vector<Binding> kept;
      for (auto& row : rows) {
        if (exec::EvaluatePredicate(*filter, row)) kept.push_back(row);
      }
      rows = std::move(kept);
    }
    if (!query.skyline.empty()) {
      // Independent O(n^2) pairwise skyline.
      std::vector<Binding> skyline;
      for (const auto& candidate : rows) {
        bool dominated = false;
        for (const auto& other : rows) {
          if (RefDominates(other, candidate, query.skyline)) {
            dominated = true;
            break;
          }
        }
        if (!dominated) skyline.push_back(candidate);
      }
      rows = std::move(skyline);
    }
    // Project to the select list.
    std::vector<Binding> projected;
    for (const auto& row : rows) {
      Binding out;
      if (query.select_all) {
        out = row;
      } else {
        for (const auto& v : query.select) {
          auto it = row.find(v);
          if (it != row.end()) out.emplace(v, it->second);
        }
      }
      projected.push_back(std::move(out));
    }
    return projected;
  }

 private:
  static bool RefDominates(const Binding& a, const Binding& b,
                           const std::vector<vql::SkylineKey>& keys) {
    bool strict = false;
    for (const auto& key : keys) {
      auto ia = a.find(key.variable);
      auto ib = b.find(key.variable);
      if (ia == a.end() || ib == b.end()) return false;
      int cmp = ia->second.Compare(ib->second);
      if (key.direction == vql::SkylineDirection::kMax) cmp = -cmp;
      if (cmp > 0) return false;
      if (cmp < 0) strict = true;
    }
    return strict;
  }

  std::vector<Triple> triples_;
};

// Order-insensitive multiset comparison of result rows.
std::multiset<std::string> RowSet(const std::vector<Binding>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(exec::BindingToString(row));
  return out;
}

// --- Fixture ---------------------------------------------------------------

struct TestCluster {
  std::unique_ptr<Cluster> cluster;
  Reference reference;

  explicit TestCluster(size_t peers = 16, uint64_t seed = 11,
                       bool qgram_index = true) {
    ClusterOptions options;
    options.peers = peers;
    options.seed = seed;
    options.node.qgram_index = qgram_index;
    cluster = std::make_unique<Cluster>(options);
  }

  void Load(const std::vector<triple::Tuple>& tuples) {
    for (size_t i = 0; i < tuples.size(); ++i) {
      auto via = static_cast<net::PeerId>(i % cluster->size());
      ASSERT_TRUE(cluster->InsertTupleSync(via, tuples[i]).ok());
      reference.Add(tuples[i]);
    }
    cluster->scheduler().RunUntilIdle();
    cluster->RefreshStats();
  }

  void ExpectMatchesReference(const std::string& vql_text,
                              net::PeerId via = 0) {
    auto parsed = vql::Parse(vql_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto result = cluster->QuerySync(via, vql_text);
    ASSERT_TRUE(result.ok()) << vql_text << "\n"
                             << result.status().ToString();
    auto expected = reference.Eval(*parsed);
    EXPECT_EQ(RowSet(result->rows), RowSet(expected))
        << "query: " << vql_text << "\nplan:\n"
        << result->plan_text;
  }
};

std::vector<triple::Tuple> SmallDataset() {
  BibliographyOptions options;
  options.authors = 12;
  options.publications_per_author = 2;
  options.typo_probability = 0.3;
  options.seed = 5;
  return GenerateBibliography(options).AllTuples();
}

// --- Tests -------------------------------------------------------------------

TEST(IntegrationTest, SinglePatternScan) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference("SELECT ?a,?n WHERE { (?a,'name',?n) }");
}

TEST(IntegrationTest, ExactValueLookup) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference("SELECT ?c WHERE { (?c,'year',2005) }", 3);
}

TEST(IntegrationTest, OidLookup) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference(
      "SELECT ?p,?v WHERE { ('person-3',?p,?v) }", 7);
}

TEST(IntegrationTest, RangeFilterPushdown) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference(
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 40 }", 2);
  tc.ExpectMatchesReference(
      "SELECT ?c,?y WHERE { (?c,'year',?y) FILTER ?y > 2002 FILTER ?y < "
      "2005 }",
      5);
  // One FILTER with an AND (the query_mix range class), pushed as in[lo,hi].
  tc.ExpectMatchesReference(
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 40 AND ?g <= 42 }", 6);
  tc.ExpectMatchesReference(
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g < 30 OR ?g > 60 }", 7);
}

TEST(IntegrationTest, TwoPatternJoin) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference(
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }");
}

TEST(IntegrationTest, JoinStrategiesAgree) {
  TestCluster tc;
  tc.Load(SmallDataset());
  // has_published also appears as has_published_1 (second publications);
  // the mapping makes mapped plans probe both attributes' keys.
  ASSERT_TRUE(
      tc.cluster->InsertMappingSync(0, "has_published", "has_published_1")
          .ok());
  for (net::PeerId via = 0; via < tc.cluster->size(); ++via) {
    ASSERT_TRUE(tc.cluster->LoadMappingsSync(via).ok());
  }
  const std::vector<std::string> queries = {
      // Subject-bound right side (OID probes).
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g < 60 }",
      // Object-bound right side on attributes whose name fills the key
      // prefix: every value shares one A#v key.
      "SELECT ?a,?t WHERE { ('pub-2','title',?t) (?a,'has_published',?t) }",
      "SELECT ?c,?p WHERE { (?c,'confname',?n) (?p,'published_in',?n) }",
      "SELECT ?p,?a WHERE { (?p,'title',?t) (?a,'has_published',?t) }",
  };
  for (const std::string& query : queries) {
    auto parsed = vql::Parse(query);
    ASSERT_TRUE(parsed.ok());
    const auto unmapped = RowSet(tc.reference.Eval(*parsed));
    ASSERT_FALSE(unmapped.empty()) << query;
    std::multiset<std::string> mapped;
    for (bool apply_mappings : {false, true}) {
      for (plan::JoinStrategy strategy :
           {plan::JoinStrategy::kLocalHash, plan::JoinStrategy::kProbe,
            plan::JoinStrategy::kMigrate}) {
        plan::PlannerOptions options;
        options.force_join_strategy = strategy;
        options.apply_mappings = apply_mappings;
        tc.cluster->SetPlannerOptions(options);
        auto result = tc.cluster->QuerySync(1, query);
        const std::string label =
            query + " strategy " +
            std::string(plan::JoinStrategyName(strategy)) +
            (apply_mappings ? " mapped" : "");
        ASSERT_TRUE(result.ok())
            << label << ": " << result.status().ToString();
        if (!apply_mappings) {
          EXPECT_EQ(RowSet(result->rows), unmapped)
              << label << "\nplan:\n" << result->plan_text;
        } else if (strategy == plan::JoinStrategy::kLocalHash) {
          mapped = RowSet(result->rows);
          EXPECT_GE(mapped.size(), unmapped.size()) << label;
        } else {
          EXPECT_EQ(RowSet(result->rows), mapped)
              << label << "\nplan:\n" << result->plan_text;
        }
      }
    }
  }
}

TEST(IntegrationTest, ProbeJoinLooksUpASharedKeyOnce) {
  // "a#has_published#" fills the whole key prefix, so every value the OID
  // scan binds probes one A#v key: the join must look it up once, not
  // once per row.
  TestCluster tc;
  tc.Load(SmallDataset());
  plan::PlannerOptions options;
  options.force_join_strategy = plan::JoinStrategy::kProbe;
  tc.cluster->SetPlannerOptions(options);
  auto lookup_walks = [](const net::TrafficStats& traffic) -> uint64_t {
    auto it = traffic.per_type.find(net::MessageType::kLookupReply);
    return it == traffic.per_type.end() ? 0 : it->second;
  };
  uint64_t probe_walks = 0;
  for (net::PeerId via = 0; via < tc.cluster->size(); ++via) {
    auto scan = tc.cluster->QueryMeasured(
        via, "SELECT ?t WHERE { ('person-3',?attr,?t) }");
    auto join = tc.cluster->QueryMeasured(
        via,
        "SELECT ?a WHERE { ('person-3',?attr,?t) (?a,'has_published',?t) }");
    ASSERT_TRUE(scan.ok() && join.ok());
    ASSERT_GT(scan->result.rows.size(), 1u);
    ASSERT_FALSE(join->result.rows.empty());
    const std::string expected =
        "Join[Probe]: by=object rows=" +
        std::to_string(scan->result.rows.size()) +
        " keys=1 filtered=0 lookups=1 memo_hits=0 batches=1";
    EXPECT_NE(std::find(join->result.trace.begin(), join->result.trace.end(),
                        expected),
              join->result.trace.end())
        << "via " << via;
    // One walk beyond the scan's own OID lookup (none when the initiator
    // owns the key).
    const uint64_t walks =
        lookup_walks(join->traffic) - lookup_walks(scan->traffic);
    EXPECT_LE(walks, 1u) << "via " << via;
    probe_walks += walks;
  }
  EXPECT_GT(probe_walks, 0u);
}

uint64_t MessagesOfType(const net::TrafficStats& traffic,
                        net::MessageType type) {
  auto it = traffic.per_type.find(type);
  return it == traffic.per_type.end() ? 0 : it->second;
}

TEST(IntegrationTest, ProbeJoinBatchesKeys) {
  // The age scan binds every author; the name probe then looks all their
  // OIDs up in one key-set lookup instead of one single-key lookup per key.
  TestCluster tc;
  tc.Load(SmallDataset());
  plan::PlannerOptions options;
  options.force_join_strategy = plan::JoinStrategy::kProbe;
  tc.cluster->SetPlannerOptions(options);
  uint64_t batch_messages = 0;
  uint64_t single_messages = 0;
  for (net::PeerId via = 0; via < tc.cluster->size(); ++via) {
    auto join = tc.cluster->QueryMeasured(
        via,
        "SELECT ?a,?n WHERE { (?a,'age',?g) (?a,'name',?n) FILTER ?g >= 0 }");
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    std::set<std::string> oids;
    for (const auto& row : join->result.rows) {
      oids.insert(row.at("a").AsString());
    }
    ASSERT_GE(oids.size(), 8u);
    const std::string keys = std::to_string(oids.size());
    const std::string expected = "Join[Probe]: by=subject rows=" + keys +
                                 " keys=" + keys + " filtered=0 lookups=" +
                                 keys +
                                 " memo_hits=0 batches=1";
    EXPECT_NE(std::find(join->result.trace.begin(), join->result.trace.end(),
                        expected),
              join->result.trace.end())
        << "via " << via;
    batch_messages +=
        MessagesOfType(join->traffic, net::MessageType::kLookup) +
        MessagesOfType(join->traffic, net::MessageType::kLookupReply);
    for (const std::string& oid : oids) {
      const net::TrafficStats before = tc.cluster->overlay().transport().stats();
      ASSERT_TRUE(
          tc.cluster->overlay().LookupSync(via, triple::OidKey(oid)).ok());
      single_messages +=
          tc.cluster->overlay().transport().stats().Since(before).messages_sent;
    }
  }
  EXPECT_GT(batch_messages, 0u);
  EXPECT_LT(batch_messages, single_messages);
}

TEST(IntegrationTest, SimilarityPathsAgree) {
  TestCluster tc;
  std::vector<triple::Tuple> data = SmallDataset();
  // 200 series far from the target: the naive scan ships them all, the
  // q-gram path reads only the target's postings (claim C5).
  for (int i = 0; i < 200; ++i) {
    triple::Tuple t;
    t.oid = "workshop-" + std::to_string(i);
    t.attributes["series"] = Value::String("workshop " + std::to_string(i));
    data.push_back(std::move(t));
  }
  tc.Load(data);
  const std::string query =
      "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 2 }";
  auto parsed = vql::Parse(query);
  ASSERT_TRUE(parsed.ok());
  auto expected = RowSet(tc.reference.Eval(*parsed));
  ASSERT_FALSE(expected.empty());  // Dataset has ICDE + typos.

  uint64_t qgram_bytes = 0;
  uint64_t naive_bytes = 0;
  for (plan::AccessPath path : {plan::AccessPath::kSimilarityQGram,
                                plan::AccessPath::kSimilarityNaive}) {
    plan::PlannerOptions options;
    options.force_similarity_path = path;
    tc.cluster->SetPlannerOptions(options);
    auto measured = tc.cluster->QueryMeasured(2, query);
    ASSERT_TRUE(measured.ok()) << measured.status().ToString();
    EXPECT_EQ(RowSet(measured->result.rows), expected)
        << "path " << plan::AccessPathName(path);
    if (path == plan::AccessPath::kSimilarityQGram) {
      qgram_bytes = measured->traffic.bytes_sent;
    } else {
      naive_bytes = measured->traffic.bytes_sent;
    }
  }
  // 1.5 KB against 13.8 KB.
  EXPECT_LE(4 * qgram_bytes, naive_bytes);
}

std::string ContainsQuery(const std::string& needle) {
  return "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS '" +
         needle + "' }";
}

TEST(IntegrationTest, SubstringPathsAgree) {
  TestCluster tc;
  std::vector<triple::Tuple> data = SmallDataset();
  triple::Tuple news;
  news.oid = "news-1";
  news.attributes["headline"] = Value::String("ranking the news");
  data.push_back(news);
  tc.Load(data);

  // Runs `query` through peer 2 on the planner's choice of path, or on the
  // attribute scan (forced).
  auto run = [&tc](const std::string& query, bool scan,
                   bool apply_mappings = false) {
    plan::PlannerOptions options;
    options.apply_mappings = apply_mappings;
    if (scan) options.force_similarity_path = plan::AccessPath::kSimilarityNaive;
    tc.cluster->SetPlannerOptions(options);
    auto result = tc.cluster->QuerySync(2, query);
    EXPECT_TRUE(result.ok()) << query << "\n" << result.status().ToString();
    return result.ok() ? *result : exec::QueryResult{};
  };
  auto expected_rows = [&tc](const std::string& query) {
    auto parsed = vql::Parse(query);
    EXPECT_TRUE(parsed.ok());
    return tc.reference.Eval(*parsed);
  };
  auto uses = [](const exec::QueryResult& result, const char* path) {
    return result.plan_text.find(path) != std::string::npos;
  };

  struct Case {
    const char* what;
    std::string needle;
    bool matches;
  };
  const std::vector<Case> cases = {
      {"title word", "ranking", true},
      {"spans a space", "g stor", true},
      {"repeated grams", "storage stor", true},  // sto, tor twice.
      {"no match", "xyzzy", false},
  };
  for (const Case& c : cases) {
    const std::string query = ContainsQuery(c.needle);
    const auto expected = RowSet(expected_rows(query));
    EXPECT_EQ(expected.empty(), !c.matches) << c.what;
    auto qgram = run(query, /*scan=*/false);
    EXPECT_TRUE(uses(qgram, "SimilarityQGram")) << c.what << qgram.plan_text;
    EXPECT_EQ(RowSet(qgram.rows), expected) << c.what;
    auto scan = run(query, /*scan=*/true);
    EXPECT_TRUE(uses(scan, "SimilarityNaive")) << c.what << scan.plan_text;
    EXPECT_EQ(RowSet(scan.rows), expected) << c.what;
  }

  // Two characters hold no interior gram: the plan stays on the scan.
  {
    const std::string query = ContainsQuery("ng");
    auto result = run(query, /*scan=*/false);
    EXPECT_TRUE(uses(result, "AttrRangeScan")) << result.plan_text;
    EXPECT_FALSE(result.rows.empty());
    EXPECT_EQ(RowSet(result.rows), RowSet(expected_rows(query)));
  }

  // Mappings: title and headline are equivalent, one posting key each.
  const std::string ranking = ContainsQuery("ranking");
  const std::vector<Binding> titled = expected_rows(ranking);
  ASSERT_FALSE(titled.empty());
  ASSERT_TRUE(tc.cluster->InsertMappingSync(0, "title", "headline").ok());
  ASSERT_TRUE(tc.cluster->LoadMappingsSync(2).ok());
  {
    auto qgram = run(ranking, /*scan=*/false, /*apply_mappings=*/true);
    EXPECT_TRUE(uses(qgram, "SimilarityQGram")) << qgram.plan_text;
    EXPECT_TRUE(uses(qgram, "attrs={")) << qgram.plan_text;
    auto scan = run(ranking, /*scan=*/true, /*apply_mappings=*/true);
    EXPECT_EQ(RowSet(qgram.rows), RowSet(scan.rows));
    EXPECT_EQ(qgram.rows.size(), titled.size() + 1);  // + the headline.
  }

  // A removed title's postings are tombstoned with it.
  const Binding& removed = titled.front();
  ASSERT_TRUE(tc.cluster
                  ->RemoveTripleSync(3, Triple(removed.at("p").AsString(),
                                               "title", removed.at("t")))
                  .ok());
  tc.cluster->scheduler().RunUntilIdle();
  auto qgram = run(ranking, /*scan=*/false);
  auto scan = run(ranking, /*scan=*/true);
  EXPECT_EQ(RowSet(qgram.rows), RowSet(scan.rows));
  EXPECT_EQ(qgram.rows.size(), titled.size() - 1);
  for (const Binding& row : qgram.rows) {
    EXPECT_NE(row.at("p"), removed.at("p"));
  }
}

TEST(IntegrationTest, ClusterWithoutPostingsScansForStringPredicates) {
  TestCluster tc(16, 11, /*qgram_index=*/false);
  tc.Load(SmallDataset());
  const std::string edist =
      "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 2 }";
  const std::string contains = ContainsQuery("ranking");
  for (const std::string& query : {edist, contains}) {
    auto parsed = vql::Parse(query);
    ASSERT_TRUE(parsed.ok());
    const auto expected = RowSet(tc.reference.Eval(*parsed));
    ASSERT_FALSE(expected.empty()) << query;
    tc.ExpectMatchesReference(query, 2);

    // A forced q-gram path falls back to the scan and says so.
    plan::PlannerOptions options;
    options.force_similarity_path = plan::AccessPath::kSimilarityQGram;
    tc.cluster->SetPlannerOptions(options);
    auto forced = tc.cluster->QuerySync(2, query);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(RowSet(forced->rows), expected) << query;
    EXPECT_NE(std::find(forced->trace.begin(), forced->trace.end(),
                        "SimilarityQGram: no q-gram postings, falling back "
                        "to naive scan"),
              forced->trace.end());
    tc.cluster->SetPlannerOptions({});
  }
}

TEST(IntegrationTest, LongAttributeForcedQGramFallsBackToScan) {
  // "published_in" is past the 16-character key prefix: its grams would
  // share one key, so it has no postings, and a forced q-gram plan scans.
  TestCluster tc;
  tc.Load(SmallDataset());
  const std::string edist =
      "SELECT ?p,?c WHERE { (?p,'published_in',?c) "
      "FILTER edist(?c,'ICDE 2005') < 3 }";
  const std::string contains =
      "SELECT ?p,?c WHERE { (?p,'published_in',?c) "
      "FILTER ?c CONTAINS 'DE 20' }";
  for (const std::string& query : {edist, contains}) {
    auto parsed = vql::Parse(query);
    ASSERT_TRUE(parsed.ok());
    const auto expected = RowSet(tc.reference.Eval(*parsed));
    ASSERT_FALSE(expected.empty()) << query;

    plan::PlannerOptions options;
    options.force_similarity_path = plan::AccessPath::kSimilarityQGram;
    tc.cluster->SetPlannerOptions(options);
    auto forced = tc.cluster->QuerySync(2, query);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(RowSet(forced->rows), expected) << query;
    EXPECT_NE(std::find(forced->trace.begin(), forced->trace.end(),
                        "SimilarityQGram: attribute has no own gram keys, "
                        "falling back to naive scan"),
              forced->trace.end())
        << forced->plan_text;
    tc.cluster->SetPlannerOptions({});
  }
}

TEST(IntegrationTest, NoPostingStoredUnderASharedGramKey) {
  TestCluster tc;
  std::vector<triple::Tuple> data = SmallDataset();
  // One attribute at the 16-character boundary, one past it.
  triple::Tuple extra;
  extra.oid = "pub-extra";
  extra.attributes["published_"] = Value::String("ICDE 2006");
  extra.attributes["has_published_7"] = Value::String("gossip overlays");
  data.push_back(extra);
  tc.Load(data);
  // A removed long-attribute triple writes no posting tombstones either.
  ASSERT_TRUE(tc.cluster
                  ->RemoveTripleSync(1, Triple("pub-extra", "has_published_7",
                                               Value::String("gossip "
                                                             "overlays")))
                  .ok());
  tc.cluster->scheduler().RunUntilIdle();

  std::set<std::string> posted;  // Attributes with a stored posting.
  for (size_t i = 0; i < tc.cluster->size(); ++i) {
    // ScanAll visits tombstones as well as live entries.
    tc.cluster->node(static_cast<net::PeerId>(i))
        .peer()
        ->store()
        .ScanAll([&posted](const pgrid::EntryView& entry) {
          if (entry.id.rfind("g#", 0) != 0) return true;
          auto t = triple::DecodeEntryTriple(entry.id);
          EXPECT_TRUE(t.ok()) << t.status().ToString();
          if (t.ok()) posted.insert(t->attribute);
          return true;
        });
  }
  EXPECT_EQ(posted.count("title"), 1u);
  EXPECT_EQ(posted.count("series"), 1u);
  EXPECT_EQ(posted.count("published_"), 1u);
  for (const std::string& attr : posted) {
    EXPECT_TRUE(qgram::GramsHaveOwnKeys(attr, qgram::kDefaultQ)) << attr;
  }
}

TEST(IntegrationTest, RangeStrategiesAgree) {
  TestCluster tc;
  tc.Load(SmallDataset());
  const std::string query =
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 FILTER ?g <= 60 }";
  auto parsed = vql::Parse(query);
  ASSERT_TRUE(parsed.ok());
  auto expected = RowSet(tc.reference.Eval(*parsed));

  for (triple::RangeStrategy strategy :
       {triple::RangeStrategy::kSequential, triple::RangeStrategy::kShower}) {
    plan::PlannerOptions options;
    options.force_range_strategy = strategy;
    tc.cluster->SetPlannerOptions(options);
    auto result = tc.cluster->QuerySync(4, query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(RowSet(result->rows), expected);
  }
}

TEST(IntegrationTest, OrderByAndLimit) {
  TestCluster tc;
  tc.Load(SmallDataset());
  auto result = tc.cluster->QuerySync(
      0, "SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT 5");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 5u);
  // Rows sorted ascending; and they are the globally smallest ages.
  auto full = tc.cluster->QuerySync(
      0, "SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g");
  ASSERT_TRUE(full.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->rows[i].at("g"), full->rows[i].at("g"));
  }
}

TEST(IntegrationTest, TopNPushdownMatchesNoPushdown) {
  TestCluster tc;
  std::vector<triple::Tuple> data = SmallDataset();
  // 200 more ages: ship-all moves the whole partition, the ordered walk
  // about LIMIT entries (claim C6a).
  for (int i = 0; i < 200; ++i) {
    triple::Tuple t;
    t.oid = "member-" + std::to_string(i);
    t.attributes["age"] = Value::Int(20 + i % 60);
    data.push_back(std::move(t));
  }
  tc.Load(data);
  const std::string query =
      "SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT 4";
  plan::PlannerOptions with;
  tc.cluster->SetPlannerOptions(with);
  auto pushed = tc.cluster->QueryMeasured(0, query);
  ASSERT_TRUE(pushed.ok());
  EXPECT_NE(pushed->result.plan_text.find("walk_limit"), std::string::npos);

  plan::PlannerOptions without;
  without.enable_topn_pushdown = false;
  tc.cluster->SetPlannerOptions(without);
  auto plain = tc.cluster->QueryMeasured(0, query);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(RowSet(pushed->result.rows), RowSet(plain->result.rows));
  // 0.4 KB against 11 KB.
  EXPECT_LE(4 * pushed->traffic.bytes_sent, plain->traffic.bytes_sent);
}

std::vector<std::string> Column(const std::vector<Binding>& rows,
                                const std::string& variable) {
  std::vector<std::string> values;
  for (const auto& row : rows) {
    values.push_back(row.at(variable).ToDisplayString());
  }
  return values;
}

TEST(IntegrationTest, TopNPushdownFinishesSharedKeys) {
  // An index key keeps 16 characters. "a#num_of_citations#" fills them,
  // so every value of that attribute shares one key; "a#code#s" leaves
  // eight characters of a code. Within a key entries sort by OID, not by
  // value, and the OIDs below run against the values.
  TestCluster tc;
  std::vector<triple::Tuple> docs;
  for (int j = 0; j < 20; ++j) {
    triple::Tuple t;
    t.oid = std::string("doc-") + (j < 10 ? "0" : "") + std::to_string(j);
    t.attributes["num_of_citations"] = Value::Int(19 - j);
    const int rank = j < 8 ? 7 - j : 19 - j;
    t.attributes["code"] =
        Value::String(std::string(j < 8 ? "abcdefgi" : "abcdefgh") +
                      (rank < 10 ? "0" : "") + std::to_string(rank));
    docs.push_back(std::move(t));
  }
  tc.Load(docs);
  struct Case {
    const char* query;
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {"SELECT ?n WHERE { (?d,'num_of_citations',?n) } ORDER BY ?n LIMIT 3",
       {"0", "1", "2"}},
      // The lower bound's key holds smaller codes, and the walk stops in
      // the next key.
      {"SELECT ?c WHERE { (?d,'code',?c) FILTER ?c >= 'abcdefgh10' } "
       "ORDER BY ?c LIMIT 3",
       {"abcdefgh10", "abcdefgh11", "abcdefgi00"}},
      {"SELECT ?c WHERE { (?d,'code',?c) FILTER ?c >= 'abcdefgh03' AND "
       "?c <= 'abcdefgi05' } ORDER BY ?c LIMIT 2",
       {"abcdefgh03", "abcdefgh04"}},
  };
  for (const Case& c : cases) {
    for (bool pushdown : {true, false}) {
      plan::PlannerOptions options;
      options.enable_topn_pushdown = pushdown;
      tc.cluster->SetPlannerOptions(options);
      for (net::PeerId via : {0, 5, 11}) {
        auto result = tc.cluster->QuerySync(via, c.query);
        ASSERT_TRUE(result.ok()) << c.query;
        EXPECT_EQ(result->plan_text.find("walk_limit") != std::string::npos,
                  pushdown)
            << c.query << "\n" << result->plan_text;
        EXPECT_EQ(Column(result->rows, result->columns[0]), c.expected)
            << c.query << (pushdown ? " pushed" : " not pushed") << " via "
            << via;
      }
    }
  }
}

TEST(IntegrationTest, SkylineQuery) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference(
      "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
      "(?a,'num_of_pubs',?c) } ORDER BY SKYLINE OF ?g MIN, ?c MAX");
}

TEST(IntegrationTest, ThePaperExampleQuery) {
  // The §2 demo query, end to end on Figure-3-style data.
  TestCluster tc(24, /*seed=*/17);
  BibliographyOptions options;
  options.authors = 10;
  options.publications_per_author = 2;
  options.typo_probability = 0.25;
  options.seed = 23;
  tc.Load(GenerateBibliography(options).AllTuples());
  tc.ExpectMatchesReference(R"(
    SELECT ?name,?age,?cnt
    WHERE {(?a,'name',?name) (?a,'age',?age)
           (?a,'num_of_pubs',?cnt)
           (?a,'has_published',?title) (?p,'title',?title)
           (?p,'published_in',?conf) (?c,'confname',?conf)
           (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
    }
    ORDER BY SKYLINE OF ?age MIN, ?cnt MAX)");
}

// Wire bytes of one message type in `traffic`.
uint64_t BytesOfType(const net::TrafficStats& traffic, net::MessageType type) {
  auto it = traffic.per_type_bytes.find(type);
  return it == traffic.per_type_bytes.end() ? 0 : it->second;
}

// The encoded size of the entries an owner stores under the A#v key of
// `attribute` and any string value.
uint64_t StoredBytesUnder(Cluster& cluster, const std::string& attribute) {
  const pgrid::Key key = triple::AttrValueKey(attribute, Value::String("x"));
  const auto owners = cluster.overlay().ResponsiblePeers(key);
  EXPECT_FALSE(owners.empty()) << attribute;
  uint64_t bytes = 0;
  if (owners.empty()) return bytes;
  cluster.overlay().peer(owners[0])->store().ScanKey(
      key, [&bytes](const pgrid::EntryView& e) {
        bytes += e.EncodedSize();
        return true;
      });
  return bytes;
}

// The Join[Probe] lines of a trace, one per line.
std::string ProbeLines(const std::vector<std::string>& trace) {
  std::string lines;
  for (const auto& line : trace) {
    if (line.rfind("Join[Probe]:", 0) == 0) lines += line + "\n";
  }
  return lines;
}

TEST(IntegrationTest, ObjectProbesFetchOnlyTheTriplesTheyAskFor) {
  // 'published_in' and 'has_published' fill the key prefix, so every
  // value of each shares one A#v key. Probing them by object, the Fig-4
  // skyline asks the owners only for the triples of its values: the rows
  // equal a naive evaluation, and all its lookup replies together carry
  // fewer bytes than the two keys hold.
  TestCluster tc(32, /*seed=*/61);
  BibliographyOptions options;
  options.authors = 60;
  options.publications_per_author = 2;
  options.seed = 29;
  const Bibliography bib = GenerateBibliography(options);
  tc.Load(bib.AllTuples());
  plan::PlannerOptions probe;
  probe.force_join_strategy = plan::JoinStrategy::kProbe;
  tc.cluster->SetPlannerOptions(probe);
  const uint64_t stored = StoredBytesUnder(*tc.cluster, "published_in") +
                          StoredBytesUnder(*tc.cluster, "has_published");

  const std::string skyline =
      "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
      "(?a,'num_of_pubs',?cnt) (?a,'has_published',?title) "
      "(?p,'title',?title) (?p,'published_in',?conf) (?c,'confname',?conf) "
      "(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3} "
      "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";
  const std::string join =
      "SELECT ?t,?c WHERE { ('person-3','has_published',?t) "
      "(?p,'title',?t) (?p,'published_in',?c) }";
  for (const std::string& query : {skyline, join}) {
    auto parsed = vql::Parse(query);
    ASSERT_TRUE(parsed.ok());
    auto measured = tc.cluster->QueryMeasured(5, query);
    ASSERT_TRUE(measured.ok()) << measured.status().ToString();
    ASSERT_FALSE(measured->result.rows.empty()) << query;
    EXPECT_EQ(RowSet(measured->result.rows),
              RowSet(tc.reference.Eval(*parsed)))
        << query;
    // Each object probe looks up one shared key, with suffixes.
    const std::string probes = ProbeLines(measured->result.trace);
    size_t object_probes = 0;
    for (size_t at = probes.find("by=object"); at != std::string::npos;
         at = probes.find("by=object", at + 1)) {
      const size_t end = probes.find('\n', at);
      EXPECT_NE(probes.substr(at, end - at).find(" keys=1 filtered=1 "),
                std::string::npos)
          << probes;
      ++object_probes;
    }
    EXPECT_EQ(object_probes, query == skyline ? 2u : 1u) << probes;
    if (query == skyline) {
      EXPECT_LT(BytesOfType(measured->traffic, net::MessageType::kLookupReply),
                stored);
    }
  }
}

TEST(IntegrationTest, SubstringAndPrefixFilters) {
  TestCluster tc;
  tc.Load(SmallDataset());
  tc.ExpectMatchesReference(
      "SELECT ?c,?n WHERE { (?c,'confname',?n) FILTER ?n CONTAINS '2004' }");
  tc.ExpectMatchesReference(
      "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER ?s PREFIX 'IC' }");
}

TEST(IntegrationTest, SchemaMappingsApplyAutomatically) {
  TestCluster tc(8, 31);
  // Two communities using different attribute names for the same thing.
  triple::Tuple german;
  german.oid = "g1";
  german.attributes["telefon"] = Value::Int(12345);
  german.attributes["name"] = Value::String("fritz");
  triple::Tuple english;
  english.oid = "e1";
  english.attributes["phone"] = Value::Int(99999);
  english.attributes["name"] = Value::String("fred");
  tc.Load({german, english});
  ASSERT_TRUE(tc.cluster->InsertMappingSync(0, "phone", "telefon").ok());

  // Without mappings: only the literal attribute matches.
  auto plain = tc.cluster->QuerySync(
      1, "SELECT ?a,?p WHERE { (?a,'phone',?p) }");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->rows.size(), 1u);

  // With mappings loaded from the network and enabled: both match.
  ASSERT_TRUE(tc.cluster->LoadMappingsSync(1).ok());
  plan::PlannerOptions options;
  options.apply_mappings = true;
  tc.cluster->node(1).SetPlannerOptions(options);
  auto mapped = tc.cluster->QuerySync(
      1, "SELECT ?a,?p WHERE { (?a,'phone',?p) }");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->rows.size(), 2u) << mapped->plan_text;
}

TEST(IntegrationTest, MetadataIsQueryableExplicitly) {
  // "This additional metadata can be queried explicitly by the user" (§2).
  TestCluster tc(8, 37);
  tc.Load({});
  ASSERT_TRUE(tc.cluster->InsertMappingSync(0, "phone", "telefon").ok());
  auto result = tc.cluster->QuerySync(
      2, "SELECT ?from,?to WHERE { (?from,'map#corresponds_to',?to) }");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at("from"), Value::String("phone"));
  EXPECT_EQ(result->rows[0].at("to"), Value::String("telefon"));
}

TEST(IntegrationTest, DeleteMakesTriplesInvisibleToQueries) {
  TestCluster tc(8, 41);
  triple::Tuple t;
  t.oid = "x1";
  t.attributes["name"] = Value::String("ghost");
  tc.Load({t});
  auto before = tc.cluster->QuerySync(
      0, "SELECT ?a WHERE { (?a,'name','ghost') }");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->rows.size(), 1u);

  ASSERT_TRUE(tc.cluster
                  ->RemoveTripleSync(
                      3, Triple("x1", "name", Value::String("ghost")))
                  .ok());
  auto after = tc.cluster->QuerySync(
      0, "SELECT ?a WHERE { (?a,'name','ghost') }");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->rows.empty());
}

TEST(IntegrationTest, UpdatedValueWinsInQueries) {
  TestCluster tc(8, 43);
  triple::Tuple t;
  t.oid = "p1";
  t.attributes["age"] = Value::Int(30);
  tc.Load({t});
  // Age changes: delete old triple, insert new (triple-level update).
  ASSERT_TRUE(
      tc.cluster->RemoveTripleSync(1, Triple("p1", "age", Value::Int(30)))
          .ok());
  ASSERT_TRUE(
      tc.cluster->InsertTripleSync(2, Triple("p1", "age", Value::Int(31)))
          .ok());
  auto result =
      tc.cluster->QuerySync(0, "SELECT ?g WHERE { ('p1','age',?g) }");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at("g"), Value::Int(31));
}

TEST(IntegrationTest, QueriesFromEveryPeerAgree) {
  TestCluster tc(16, 47);
  tc.Load(SmallDataset());
  auto expected = tc.cluster->QuerySync(
      0, "SELECT ?n WHERE { (?a,'name',?n) }");
  ASSERT_TRUE(expected.ok());
  for (net::PeerId via = 1; via < 16; ++via) {
    auto result = tc.cluster->QuerySync(
        via, "SELECT ?n WHERE { (?a,'name',?n) }");
    ASSERT_TRUE(result.ok()) << "via " << via;
    EXPECT_EQ(RowSet(result->rows), RowSet(expected->rows)) << "via " << via;
  }
}

TEST(IntegrationTest, ExecutionTraceRecordsOperators) {
  TestCluster tc(16, 61);
  tc.Load(SmallDataset());
  auto result = tc.cluster->QuerySync(
      2,
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g > 20 } "
      "ORDER BY ?g LIMIT 3");
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trace.empty());
  // Every operator class of the plan appears with a cardinality.
  std::string joined;
  for (const auto& line : result->trace) joined += line + "\n";
  EXPECT_NE(joined.find("PatternScan"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Join"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Filter"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Project"), std::string::npos) << joined;
  EXPECT_NE(joined.find("rows"), std::string::npos) << joined;
  // Probe joins explain their lookups, one line per join: the query_mix
  // join probes a title by object, then a publication by subject.
  auto probed = tc.cluster->QuerySync(
      2,
      "SELECT ?t,?c WHERE { ('person-3','has_published',?t) "
      "(?p,'title',?t) (?p,'published_in',?c) }");
  ASSERT_TRUE(probed.ok());
  std::string probe_lines;
  for (const auto& line : probed->trace) {
    if (line.rfind("Join[Probe]:", 0) == 0) probe_lines += line + "\n";
  }
  EXPECT_EQ(probe_lines,
            "Join[Probe]: by=object rows=1 keys=1 filtered=1 lookups=1 "
            "memo_hits=0 batches=1\n"
            "Join[Probe]: by=subject rows=1 keys=1 filtered=0 lookups=1 "
            "memo_hits=0 batches=1\n");
  // A subject star: the second probe finds every key in the memo and
  // sends no batch.
  plan::PlannerOptions probe;
  probe.force_join_strategy = plan::JoinStrategy::kProbe;
  tc.cluster->SetPlannerOptions(probe);
  auto star = tc.cluster->QuerySync(
      2,
      "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
      "(?a,'num_of_pubs',?c) }");
  ASSERT_TRUE(star.ok());
  probe_lines.clear();
  for (const auto& line : star->trace) {
    if (line.rfind("Join[Probe]:", 0) == 0) probe_lines += line + "\n";
  }
  EXPECT_EQ(probe_lines,
            "Join[Probe]: by=subject rows=12 keys=12 filtered=0 lookups=12 "
            "memo_hits=0 batches=1\n"
            "Join[Probe]: by=subject rows=12 keys=12 filtered=0 lookups=0 "
            "memo_hits=12 batches=0\n");
  tc.cluster->SetPlannerOptions(plan::PlannerOptions{});
  // Traces are repeatable: the same query yields the same trace
  // (deterministic simulation — the paper's "(in limits) repeatable").
  auto again = tc.cluster->QuerySync(
      2,
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g > 20 } "
      "ORDER BY ?g LIMIT 3");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->trace, again->trace);
}

TEST(IntegrationTest, MeasuredQueryReportsTrafficAndLatency) {
  TestCluster tc;
  tc.Load(SmallDataset());
  auto measured = tc.cluster->QueryMeasured(
      0, "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }");
  ASSERT_TRUE(measured.ok());
  EXPECT_GT(measured->traffic.messages_sent, 0u);
  EXPECT_GT(measured->traffic.bytes_sent, 0u);
  EXPECT_GT(measured->virtual_latency_us, 0);
  EXPECT_FALSE(measured->result.plan_text.empty());
}

TEST(IntegrationTest, WanClusterAnswersWithinSeconds) {
  // Smoke version of experiment C2: PlanetLab-like latencies, a realistic
  // query, answer within single-digit virtual seconds.
  ClusterOptions options;
  options.peers = 48;
  options.seed = 53;
  options.latency = ClusterOptions::Latency::kWan;
  Cluster cluster(options);
  BibliographyOptions data;
  data.authors = 12;
  data.seed = 3;
  auto tuples = GenerateBibliography(data).AllTuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_TRUE(cluster
                    .InsertTupleSync(
                        static_cast<net::PeerId>(i % cluster.size()),
                        tuples[i])
                    .ok());
  }
  cluster.scheduler().RunUntilIdle();
  cluster.RefreshStats();
  auto measured = cluster.QueryMeasured(
      5, "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }");
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  EXPECT_GT(measured->virtual_latency_us, 50 * sim::kMicrosPerMilli);
  EXPECT_LT(measured->virtual_latency_us, 10 * sim::kMicrosPerSecond);
}

TEST(IntegrationTest, Figure2PlacementEighteenTriples) {
  // Figure 2: two 3-attribute tuples produce 18 index entries distributed
  // over the 8-peer network, and each index reproduces the origin data.
  ClusterOptions options;
  options.peers = 8;
  options.seed = 59;
  options.node.qgram_index = false;  // Count only the paper's 3 indexes.
  Cluster cluster(options);
  for (const auto& tuple : Fig2Tuples()) {
    ASSERT_TRUE(cluster.InsertTupleSync(0, tuple).ok());
  }
  cluster.scheduler().RunUntilIdle();

  size_t total_entries = 0;
  for (size_t i = 0; i < 8; ++i) {
    total_entries += cluster.overlay()
                         .peer(static_cast<net::PeerId>(i))
                         ->store()
                         .live_size();
  }
  EXPECT_EQ(total_entries, 18u);  // 2 tuples x 3 attributes x 3 indexes.

  // Reproduction of origin data from the OID index.
  auto result = cluster.QuerySync(
      3, "SELECT ?p,?v WHERE { ('a12',?p,?v) }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

}  // namespace
}  // namespace core
}  // namespace unistore
