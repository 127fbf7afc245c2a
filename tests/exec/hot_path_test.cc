// Hot-path serving layer scenarios (DESIGN.md §8): replica-group fan-out
// spreads skewed lookups across the replica group, and every redirected
// read returns the stored entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/datagen.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"

namespace unistore {
namespace exec {
namespace {

// --- Replica-group fan-out ---------------------------------------------------

// The first peer outside `group`.
net::PeerId OutsideOf(const std::vector<net::PeerId>& group) {
  net::PeerId peer = 0;
  while (std::find(group.begin(), group.end(), peer) != group.end()) ++peer;
  return peer;
}

TEST(HotKeyFanoutTest, SkewedLookupsSpreadAcrossReplicaGroup) {
  pgrid::OverlayOptions options;
  options.seed = 616;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  ASSERT_GE(overlay.InsertDirect(hot), 3u) << "replica group too small";
  const auto owners = overlay.ResponsiblePeers(hot.key);

  // An initiator outside the replica group hammers one key.
  const net::PeerId initiator = OutsideOf(owners);
  const int kLookups = 300;
  for (int i = 0; i < kLookups; ++i) {
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    ASSERT_EQ(result->entries.size(), 1u) << "lookup " << i;
    EXPECT_EQ(result->entries[0].id, "hot-id");
  }

  uint64_t adverts = 0;
  size_t serving_replicas = 0;
  for (net::PeerId owner : owners) {
    adverts += overlay.peer(owner)->counters().hot_adverts;
    if (overlay.peer(owner)->counters().lookups_served > 0) ++serving_replicas;
  }
  EXPECT_GT(adverts, 0u) << "no reply advertised the replica group";
  EXPECT_GT(overlay.peer(initiator)->counters().fanout_redirects, 0u);
  EXPECT_GE(serving_replicas, 2u)
      << "fan-out failed to spread load off the single owner";
}

// Zipf-skewed lookups from one initiator over 64 stored values: with
// every reply advertising its group, most keys go one hop to a replica,
// and each lookup still returns exactly the entry stored under its key.
TEST(HotKeyFanoutTest, ZipfLookupsReturnTheInsertedEntries) {
  pgrid::OverlayOptions options;
  options.seed = 808;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(48);
  overlay.BuildBalanced();

  std::map<pgrid::Key, std::vector<std::string>> stored;
  for (size_t rank = 0; rank < 64; ++rank) {
    char value[16];
    std::snprintf(value, sizeof(value), "val-%05zu", rank);
    pgrid::Entry e;
    e.key = pgrid::OpHash(value);
    e.id = std::string("id-") + value;
    e.version = 1;
    ASSERT_GE(overlay.InsertDirect(e), 1u);
    stored[e.key].push_back(e.id);
  }
  for (auto& [key, ids] : stored) std::sort(ids.begin(), ids.end());

  // Outside the hottest value's group, so the hot traffic crosses the
  // network.
  const net::PeerId initiator =
      OutsideOf(overlay.ResponsiblePeers(pgrid::OpHash("val-00000")));
  core::ZipfQueryOptions zipf;
  zipf.count = 1200;
  zipf.theta = 1.1;
  zipf.read_ratio = 1.0;
  zipf.value_universe = 64;
  zipf.seed = 4242;
  for (const core::ZipfQuery& q : core::GenerateZipfQueries(zipf)) {
    const pgrid::Key key = pgrid::OpHash(q.value);
    auto result = overlay.LookupSync(initiator, key);
    ASSERT_TRUE(result.ok()) << q.value << ": " << result.status().ToString();
    std::vector<std::string> ids;
    for (const pgrid::Entry& e : result->entries) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids, stored.at(key)) << q.value;
  }
  EXPECT_GT(overlay.peer(initiator)->counters().fanout_redirects, 600u);
}

// One key-set lookup over keys inside and outside a partition whose
// advert the initiator holds: the keys under the advert go to a replica,
// the others are routed, and every key returns its stored entry.
TEST(HotKeyFanoutTest, BatchKeysUnderAnAdvertAreRedirected) {
  pgrid::OverlayOptions options;
  options.seed = 618;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  std::vector<pgrid::Key> keys;
  std::map<pgrid::Key, std::string> ids;
  for (const std::string value :
       {"the-hot-value", "the-hot-value-1", "the-hot-value-2", "!cold-value",
        "\xF0" "cold-value"}) {
    pgrid::Entry e;
    e.key = pgrid::OpHash(value);
    e.id = value + "-id";
    overlay.InsertDirect(e);
    keys.push_back(e.key);
    ids[e.key] = e.id;
  }
  const auto owners = overlay.ResponsiblePeers(keys[0]);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[1]), owners);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[2]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[3]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[4]), owners);
  const net::PeerId initiator = OutsideOf(owners);
  ASSERT_TRUE(overlay.LookupSync(initiator, keys[0]).ok());  // The advert.

  const uint64_t before = overlay.peer(initiator)->counters().fanout_redirects;
  auto batch = overlay.LookupBatchSync(initiator, keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects - before, 3u);
  ASSERT_EQ(batch->size(), 5u);
  for (const auto& [key, entries] : *batch) {
    ASSERT_EQ(entries.size(), 1u) << key.ToString();
    EXPECT_EQ(entries[0].id, ids.at(key));
  }
}

// Write, then read the key back through the advert: every replica the
// advert names serves one redirected read, and each returns the write.
TEST(HotKeyFanoutTest, RedirectedReadsReturnTheWriteAtEveryReplica) {
  pgrid::OverlayOptions options;
  options.seed = 619;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry written;
  written.key = pgrid::OpHash("the-written-value");
  written.id = "written-id";
  written.version = 1;
  const auto owners = overlay.ResponsiblePeers(written.key);
  ASSERT_EQ(owners.size(), 3u);
  const net::PeerId initiator = OutsideOf(owners);
  // The routed insert's reply brings back the advert of the key's path,
  // and the advert outlives the replica push.
  ASSERT_TRUE(overlay.InsertSync(initiator, written).ok());
  overlay.scheduler().RunUntilIdle();  // The replica push delivers.
  ASSERT_EQ(overlay.peer(initiator)->advert_cache().size(), 1u);
  ASSERT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 0u);

  std::set<net::PeerId> served;
  for (size_t i = 0; i < owners.size(); ++i) {
    std::vector<uint64_t> before;
    for (net::PeerId owner : owners) {
      before.push_back(overlay.peer(owner)->counters().lookups_served);
    }
    const uint64_t redirects =
        overlay.peer(initiator)->counters().fanout_redirects;
    auto result = overlay.LookupSync(initiator, written.key);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects,
              redirects + 1);
    ASSERT_EQ(result->entries.size(), 1u) << "read " << i;
    EXPECT_EQ(result->entries[0].id, "written-id");
    for (size_t o = 0; o < owners.size(); ++o) {
      if (overlay.peer(owners[o])->counters().lookups_served > before[o]) {
        served.insert(owners[o]);
      }
    }
  }
  EXPECT_EQ(served, std::set<net::PeerId>(owners.begin(), owners.end()));
}

// One timed-out redirect to a crashed replica drops it from the advert:
// later keys under the path never go to it, even once its suspicion has
// expired, so only one read pays the timeout.
TEST(HotKeyFanoutTest, TimedOutRedirectForgetsTheReplica) {
  pgrid::OverlayOptions options;
  options.seed = 620;
  options.replication = 3;
  options.peer.request_timeout = 200 * sim::kMicrosPerMilli;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  overlay.InsertDirect(hot);
  const auto owners = overlay.ResponsiblePeers(hot.key);
  ASSERT_EQ(owners.size(), 3u);
  const net::PeerId initiator = OutsideOf(owners);
  ASSERT_TRUE(overlay.LookupSync(initiator, hot.key).ok());  // The advert.
  overlay.Crash(owners[1]);

  int slow = 0;
  for (int i = 0; i < 12; ++i) {
    const sim::SimTime start = overlay.scheduler().Now();
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    ASSERT_EQ(result->entries.size(), 1u);
    if (overlay.scheduler().Now() - start >= options.peer.request_timeout) {
      ++slow;
    }
  }
  EXPECT_EQ(slow, 1) << "a later key was redirected to the crashed replica";
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 13u);
}

TEST(HotKeyFanoutTest, PeerWithoutReplicaGroupNeverAdvertises) {
  pgrid::OverlayOptions options;
  options.seed = 617;
  options.replication = 1;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  overlay.InsertDirect(hot);
  const auto owners = overlay.ResponsiblePeers(hot.key);
  ASSERT_EQ(owners.size(), 1u);
  const net::PeerId initiator = OutsideOf(owners);
  for (int i = 0; i < 120; ++i) {
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->entries.size(), 1u);
  }
  EXPECT_EQ(overlay.peer(owners[0])->counters().hot_adverts, 0u);
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 0u);
  EXPECT_EQ(overlay.peer(initiator)->advert_cache().size(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace unistore
