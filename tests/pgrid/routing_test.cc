// Overlay routing: lookups reach the responsible peer within the
// logarithmic hop bound (paper claim C1), inserts land correctly, and the
// routing table behaves under ref churn.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

Entry MakeDataEntry(const std::string& value, const std::string& id) {
  Entry e;
  e.key = OpHash(value);
  e.id = id;
  return e;
}

TEST(RoutingTableTest, AddRemoveRefs) {
  RoutingTable table;
  Rng rng(1);
  table.ResetForPath(3);
  table.AddRef(0, 10, &rng);
  table.AddRef(0, 11, &rng);
  table.AddRef(0, 10, &rng);  // Duplicate ignored.
  EXPECT_EQ(table.RefsAt(0).size(), 2u);
  table.RemoveRef(0, 10);
  EXPECT_EQ(table.RefsAt(0).size(), 1u);
  EXPECT_EQ(table.RefsAt(7).size(), 0u);  // Out of range is empty.
}

TEST(RoutingTableTest, CapacityCapWithReplacement) {
  RoutingTable table;
  Rng rng(2);
  table.ResetForPath(1);
  for (net::PeerId p = 0; p < 100; ++p) table.AddRef(0, p, &rng);
  EXPECT_EQ(table.RefsAt(0).size(), RoutingTable::kMaxRefsPerLevel);
}

TEST(RoutingTableTest, ExtendToPreservesRefs) {
  RoutingTable table;
  Rng rng(3);
  table.ResetForPath(2);
  table.AddRef(1, 42, &rng);
  table.ExtendTo(4);
  EXPECT_EQ(table.levels(), 4u);
  EXPECT_EQ(table.RefsAt(1).size(), 1u);
}

TEST(RoutingTableTest, ReplicaManagement) {
  RoutingTable table;
  table.AddReplica(5);
  table.AddReplica(5);
  table.AddReplica(6);
  EXPECT_EQ(table.replicas().size(), 2u);
  table.RemoveEverywhere(5);
  EXPECT_EQ(table.replicas().size(), 1u);
}

TEST(BalancedPathsTest, PowersOfTwoAreUniform) {
  std::vector<std::string> paths;
  GenerateBalancedPaths(8, "", &paths);
  ASSERT_EQ(paths.size(), 8u);
  std::set<std::string> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 3u);
}

TEST(BalancedPathsTest, NonPowerOfTwoIsPrefixFree) {
  std::vector<std::string> paths;
  GenerateBalancedPaths(6, "", &paths);
  ASSERT_EQ(paths.size(), 6u);
  for (const auto& a : paths) {
    for (const auto& b : paths) {
      if (a == b) continue;
      EXPECT_FALSE(b.rfind(a, 0) == 0) << a << " prefix of " << b;
    }
  }
}

TEST(OverlayTest, BuildBalancedAssignsPrefixFreePaths) {
  Overlay overlay;
  overlay.AddPeers(16);
  overlay.BuildBalanced();
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(overlay.peer(static_cast<net::PeerId>(i))->path().size(), 4u);
  }
}

TEST(OverlayTest, LookupFindsInsertedEntry) {
  Overlay overlay;
  overlay.AddPeers(16);
  overlay.BuildBalanced();
  Entry e = MakeDataEntry("hello world", "e1");
  ASSERT_TRUE(overlay.InsertSync(0, e).ok());
  auto result = overlay.LookupSync(5, e.key);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(result->entries[0], e);
}

TEST(OverlayTest, LookupMissingKeyReturnsEmpty) {
  Overlay overlay;
  overlay.AddPeers(8);
  overlay.BuildBalanced();
  auto result = overlay.LookupSync(0, OpHash("no such value"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->entries.empty());
}

TEST(OverlayTest, InsertLandsOnResponsiblePeer) {
  Overlay overlay;
  overlay.AddPeers(32);
  overlay.BuildBalanced();
  Entry e = MakeDataEntry("publication title", "t9");
  ASSERT_TRUE(overlay.InsertSync(3, e).ok());
  auto owners = overlay.ResponsiblePeers(e.key);
  ASSERT_FALSE(owners.empty());
  bool found = false;
  for (auto id : owners) {
    if (!overlay.peer(id)->store().Get(e.key).empty()) found = true;
  }
  EXPECT_TRUE(found);
}

// Property sweep (claim C1): across network sizes, every lookup reaches the
// owner and hop counts stay within the trie depth.
class RoutingScaling : public ::testing::TestWithParam<size_t> {};

TEST_P(RoutingScaling, AllLookupsSucceedWithinDepthHops) {
  const size_t n = GetParam();
  OverlayOptions options;
  options.seed = 1000 + n;
  Overlay overlay(options);
  overlay.AddPeers(n);
  overlay.BuildBalanced();
  const size_t depth = overlay.MaxPathDepth();

  Rng rng(n);
  std::vector<Entry> inserted;
  for (int i = 0; i < 50; ++i) {
    Entry e = MakeDataEntry("value-" + std::to_string(rng.Next() % 100000),
                            "id" + std::to_string(i));
    auto from = static_cast<net::PeerId>(rng.NextBounded(n));
    ASSERT_TRUE(overlay.InsertSync(from, e).ok());
    inserted.push_back(e);
  }
  double total_hops = 0;
  for (const Entry& e : inserted) {
    auto from = static_cast<net::PeerId>(rng.NextBounded(n));
    auto result = overlay.LookupSync(from, e.key);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bool found = false;
    for (const auto& got : result->entries) {
      if (got.id == e.id) found = true;
    }
    EXPECT_TRUE(found) << "entry " << e.id << " not found from peer "
                       << from;
    EXPECT_LE(result->hops, depth + 1);
    total_hops += result->hops;
  }
  // Average hops should be at most the trie depth (~log2 n). Each hop
  // resolves the first differing bit and, by luck, half of the rest on
  // average, so the mean stays near depth / 2 (~log2(n) / 2).
  const double mean_hops = total_hops / static_cast<double>(inserted.size());
  EXPECT_LE(mean_hops, static_cast<double>(depth));
  EXPECT_LE(mean_hops, static_cast<double>(depth) / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(NetworkSizes, RoutingScaling,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           1024));

TEST(OverlayTest, ReplicationStoresOnAllReplicas) {
  OverlayOptions options;
  options.replication = 2;
  options.seed = 11;
  Overlay overlay(options);
  overlay.AddPeers(16);  // 8 leaves x 2 replicas.
  overlay.BuildBalanced();
  Entry e = MakeDataEntry("replicated value", "r1");
  ASSERT_TRUE(overlay.InsertSync(0, e).ok());
  overlay.scheduler().RunUntilIdle();  // Let replica pushes settle.
  auto owners = overlay.ResponsiblePeers(e.key);
  ASSERT_EQ(owners.size(), 2u);
  for (auto id : owners) {
    EXPECT_FALSE(overlay.peer(id)->store().Get(e.key).empty())
        << "replica " << id << " missing entry";
  }
}

TEST(OverlayTest, LookupSurvivesOwnerCrashWithReplication) {
  OverlayOptions options;
  options.replication = 3;
  options.seed = 7;
  Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();
  Entry e = MakeDataEntry("crash survivor", "c1");
  ASSERT_TRUE(overlay.InsertSync(0, e).ok());
  overlay.scheduler().RunUntilIdle();

  auto owners = overlay.ResponsiblePeers(e.key);
  ASSERT_EQ(owners.size(), 3u);
  overlay.Crash(owners[0]);

  // Query from several peers; with retries it should find a live replica.
  int successes = 0;
  for (net::PeerId from = 0; from < 24; ++from) {
    if (!overlay.IsAlive(from)) continue;
    auto result = overlay.LookupSync(from, e.key);
    if (result.ok() && !result->entries.empty()) ++successes;
  }
  EXPECT_GT(successes, 15);  // Most lookups succeed despite the crash.
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
