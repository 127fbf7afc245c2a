// Cluster harness & data generator tests.
#include "core/cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "common/strings.h"
#include "core/datagen.h"
#include "triple/index.h"

namespace unistore {
namespace core {
namespace {

TEST(DatagenTest, Fig2TuplesMatchThePaper) {
  auto tuples = Fig2Tuples();
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].oid, "a12");
  EXPECT_EQ(tuples[0].attributes.at("confname"),
            triple::Value::String("ICDE 2006 - Workshops"));
  EXPECT_EQ(tuples[0].attributes.at("year"), triple::Value::Int(2006));
  EXPECT_EQ(tuples[1].oid, "v34");
  EXPECT_EQ(tuples[1].attributes.at("confname"),
            triple::Value::String("ICDE 2005"));
  EXPECT_EQ(tuples[1].attributes.at("year"), triple::Value::Int(2005));
  // 2 tuples x 3 attributes = 6 triples (x3 indexes = Figure 2's 18).
  size_t triples = 0;
  for (const auto& t : tuples) triples += t.attributes.size();
  EXPECT_EQ(triples, 6u);
}

TEST(DatagenTest, BibliographyShapesFollowFig3Schema) {
  BibliographyOptions options;
  options.authors = 10;
  options.publications_per_author = 2;
  options.seed = 3;
  auto bib = GenerateBibliography(options);
  EXPECT_EQ(bib.persons.size(), 10u);
  EXPECT_EQ(bib.publications.size(), 20u);
  EXPECT_FALSE(bib.conferences.empty());
  for (const auto& p : bib.persons) {
    EXPECT_TRUE(p.attributes.count("name"));
    EXPECT_TRUE(p.attributes.count("age"));
    EXPECT_TRUE(p.attributes.count("num_of_pubs"));
    EXPECT_TRUE(p.attributes.count("has_published"));
  }
  for (const auto& c : bib.conferences) {
    EXPECT_TRUE(c.attributes.count("confname"));
    EXPECT_TRUE(c.attributes.count("series"));
    EXPECT_TRUE(c.attributes.count("year"));
  }
  for (const auto& p : bib.publications) {
    EXPECT_TRUE(p.attributes.count("title"));
    EXPECT_TRUE(p.attributes.count("published_in"));
  }
  EXPECT_EQ(bib.AllTuples().size(), 10 + 20 + bib.conferences.size());
  EXPECT_GT(bib.TripleCount(), 0u);
}

TEST(DatagenTest, DeterministicForSameSeed) {
  BibliographyOptions options;
  options.authors = 5;
  options.seed = 42;
  auto a = GenerateBibliography(options);
  auto b = GenerateBibliography(options);
  ASSERT_EQ(a.persons.size(), b.persons.size());
  for (size_t i = 0; i < a.persons.size(); ++i) {
    EXPECT_EQ(a.persons[i].ToString(), b.persons[i].ToString());
  }
}

TEST(DatagenTest, InjectTypoIsOneEditAway) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    std::string base = "conference-series";
    std::string typo = InjectTypo(base, &rng);
    // Substitution/insert/delete are 1 edit; transposition is <= 2.
    EXPECT_LE(EditDistance(base, typo), 2u);
  }
}

TEST(ClusterTest, MeasuredQueryDeltasAreIsolated) {
  ClusterOptions options;
  options.peers = 8;
  options.seed = 77;
  Cluster cluster(options);
  triple::Tuple t;
  t.oid = "m1";
  t.attributes["name"] = triple::Value::String("solo");
  ASSERT_TRUE(cluster.InsertTupleSync(0, t).ok());
  cluster.RefreshStats();

  auto first = cluster.QueryMeasured(1, "SELECT ?a WHERE { (?a,'name',?n) }");
  auto second =
      cluster.QueryMeasured(1, "SELECT ?a WHERE { (?a,'name',?n) }");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Two identical queries measure comparable traffic; the second delta
  // must not include the first query's messages.
  EXPECT_NEAR(static_cast<double>(first->traffic.messages_sent),
              static_cast<double>(second->traffic.messages_sent),
              static_cast<double>(first->traffic.messages_sent) + 1);
  EXPECT_GT(second->virtual_latency_us, 0);
}

TEST(ClusterTest, AdaptiveConstructionServesQueries) {
  ClusterOptions options;
  options.peers = 12;
  options.seed = 13;
  options.balanced_construction = false;
  options.peer.split_threshold = 30;
  Cluster cluster(options);
  // All data enters through node 0 (the bootstrap node).
  for (int i = 0; i < 40; ++i) {
    triple::Tuple t;
    t.oid = "a" + std::to_string(i);
    t.attributes["name"] = triple::Value::String(
        std::string(1, static_cast<char>('a' + i % 26)) + "-n" +
        std::to_string(i));
    t.attributes["age"] = triple::Value::Int(20 + i);
    ASSERT_TRUE(cluster.InsertTupleSync(0, t).ok());
  }
  cluster.scheduler().RunUntilIdle();
  cluster.overlay().RunExchangeRounds(15);
  cluster.RefreshStats();

  EXPECT_GE(cluster.overlay().MaxPathDepth(), 1u);
  auto result = cluster.QuerySync(
      5, "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 30 }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 30u);
}

TEST(ClusterTest, ExpectedHopLatencyMatchesModel) {
  ClusterOptions lan;
  lan.lan_delay_us = 2500;
  Cluster lan_cluster(lan);
  EXPECT_DOUBLE_EQ(lan_cluster.ExpectedHopLatencyUs(), 2500);

  ClusterOptions wan;
  wan.latency = ClusterOptions::Latency::kWan;
  Cluster wan_cluster(wan);
  // Lognormal(10.6, 0.6) mean ~ 48ms + 4ms jitter.
  EXPECT_GT(wan_cluster.ExpectedHopLatencyUs(), 30000);
  EXPECT_LT(wan_cluster.ExpectedHopLatencyUs(), 80000);
}

TEST(ClusterTest, PlanOnlyExposesPhysicalPlan) {
  ClusterOptions options;
  options.peers = 4;
  Cluster cluster(options);
  auto plan = cluster.node(0).PlanOnly(
      "SELECT ?n WHERE { (?a,'name',?n) (?a,'age',?g) } ");
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("Join"), std::string::npos);
  EXPECT_FALSE(cluster.node(0).PlanOnly("SELECT garbage").ok());
}

TEST(ClusterTest, NewOidsAreUniqueAcrossNodes) {
  ClusterOptions options;
  options.peers = 4;
  Cluster cluster(options);
  std::set<std::string> oids;
  for (net::PeerId via = 0; via < 4; ++via) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(oids.insert(cluster.node(via).NewOid()).second);
    }
  }
}

// Reads through the triple layer of node `via`, driving the clock until
// the callback runs.
std::vector<triple::Triple> ReadSync(
    Cluster* cluster, net::PeerId via,
    const std::function<void(triple::TripleStore&,
                             triple::TripleStore::TriplesCallback)>& read) {
  std::optional<Result<std::vector<triple::Triple>>> out;
  read(cluster->node(via).store(),
       [&out](Result<std::vector<triple::Triple>> r) { out = std::move(r); });
  cluster->scheduler().RunUntil([&out] { return out.has_value(); });
  EXPECT_TRUE(out.has_value() && out->ok());
  if (!out.has_value() || !out->ok()) return {};
  return std::move(**out);
}

// 2^53 and 2^53 + 1 share one index key (the key encodes a number as a
// double) but are two triples: both survive, each is found by its own
// value, and removing one leaves the other.
TEST(ClusterTest, TriplesAnIndexKeyConflatesStayDistinct) {
  ClusterOptions options;
  options.peers = 8;
  options.seed = 31;
  Cluster cluster(options);
  const int64_t big = int64_t{1} << 53;
  const triple::Triple lo("o1", "n", triple::Value::Int(big));
  const triple::Triple hi("o1", "n", triple::Value::Int(big + 1));
  ASSERT_EQ(triple::AttrValueKey("n", lo.value),
            triple::AttrValueKey("n", hi.value));
  ASSERT_TRUE(cluster.InsertTripleSync(0, lo).ok());
  ASSERT_TRUE(cluster.InsertTripleSync(3, hi).ok());

  auto by_oid = [&](net::PeerId via) {
    return ReadSync(&cluster, via, [](auto& store, auto cb) {
      store.GetByOid("o1", std::move(cb));
    });
  };
  auto by_value = [&](net::PeerId via, const triple::Value& value) {
    return ReadSync(&cluster, via, [&value](auto& store, auto cb) {
      store.GetByAttrValue("n", value, std::move(cb));
    });
  };
  auto both = by_oid(5);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(std::set<int64_t>({both[0].value.AsInt(), both[1].value.AsInt()}),
            std::set<int64_t>({big, big + 1}));
  EXPECT_EQ(by_value(6, lo.value), std::vector<triple::Triple>{lo});
  EXPECT_EQ(by_value(7, hi.value), std::vector<triple::Triple>{hi});

  ASSERT_TRUE(cluster.RemoveTripleSync(1, lo).ok());
  EXPECT_EQ(by_oid(2), std::vector<triple::Triple>{hi});
  EXPECT_TRUE(by_value(4, lo.value).empty());
  EXPECT_EQ(by_value(4, hi.value), std::vector<triple::Triple>{hi});
}

TEST(ClusterTest, QueryResultTableRendering) {
  exec::QueryResult result;
  result.columns = {"name", "age"};
  exec::Binding row;
  row.emplace("name", triple::Value::String("alice"));
  row.emplace("age", triple::Value::Int(30));
  result.rows.push_back(row);
  std::string table = result.ToTable();
  EXPECT_NE(table.find("?name"), std::string::npos);
  EXPECT_NE(table.find("alice"), std::string::npos);
  EXPECT_NE(table.find("30"), std::string::npos);
  EXPECT_NE(table.find("1 row(s)"), std::string::npos);
  // Missing values render as '-'.
  exec::QueryResult sparse;
  sparse.columns = {"x"};
  sparse.rows.push_back({});
  EXPECT_NE(sparse.ToTable().find("-"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace unistore
