// Key-set lookups (Peer::LookupBatch): per-key answers equal what the
// responsible peers store, the batch costs fewer messages than the
// single-key lookups it replaces, missing keys retry as a smaller batch
// until the lookup retry budget runs out, timed-out attempts suspect
// their first hops (and drop expired suspicions), and a key with
// suffixes gets only the entries whose id ends with one of them,
// whichever peer serves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

constexpr size_t kPeers = 64;

// The i-th test key: random bits, so the keys spread over every path
// (OpHash preserves order, so strings sharing a prefix would not).
Key TestKey(size_t i) {
  Rng rng(1000 + i);
  std::string bits;
  for (size_t b = 0; b < kKeyBits; ++b) {
    bits.push_back(rng.NextBounded(2) == 0 ? '0' : '1');
  }
  return Key::FromBits(bits);
}

// Builds a balanced overlay and stores `stored` entries (one under each of
// the first `stored` test keys, two under every third) at every
// responsible peer, without routing.
std::unique_ptr<Overlay> MakeOverlay(uint64_t seed, size_t stored,
                                     net::FaultSchedule faults = {},
                                     PeerOptions peer = {}) {
  OverlayOptions options;
  options.seed = seed;
  options.replication = 2;
  options.fault_schedule = std::move(faults);
  options.peer = peer;
  auto overlay = std::make_unique<Overlay>(options);
  overlay->AddPeers(kPeers);
  overlay->BuildBalanced();
  for (size_t i = 0; i < stored; ++i) {
    for (int copy = 0; copy < (i % 3 == 0 ? 2 : 1); ++copy) {
      Entry e;
      e.key = TestKey(i);
      e.id = "id-" + std::to_string(i) + "-" + std::to_string(copy);
      for (net::PeerId p : overlay->ResponsiblePeers(e.key)) {
        overlay->peer(p)->ApplyLocal(e);
      }
    }
  }
  return overlay;
}

// Test keys that `peer` is (or is not) responsible for.
std::vector<Key> KeysOwnedBy(const Peer& peer, bool owned, size_t count) {
  std::vector<Key> keys;
  for (size_t i = 0; keys.size() < count; ++i) {
    Key key = TestKey(i);
    if (peer.IsResponsible(key) == owned) keys.push_back(std::move(key));
  }
  return keys;
}

uint64_t MessagesSince(Overlay& overlay, const net::TrafficStats& before) {
  return overlay.transport().stats().Since(before).messages_sent;
}

// What the responsible peers store under `key`, read straight from their
// stores; MakeOverlay applies every entry at each of them, so they agree.
std::vector<Entry> StoredUnder(Overlay& overlay, const Key& key) {
  std::vector<std::vector<Entry>> copies;
  for (net::PeerId p : overlay.ResponsiblePeers(key)) {
    std::vector<Entry>& entries = copies.emplace_back();
    overlay.peer(p)->store().ScanKey(key, [&entries](const EntryView& e) {
      entries.push_back(e.ToEntry());
      return true;
    });
  }
  EXPECT_FALSE(copies.empty());
  for (const auto& copy : copies) EXPECT_EQ(copy, copies.front());
  return copies.empty() ? std::vector<Entry>{} : copies.front();
}

TEST(LookupBatchTest, PerKeyResultsEqualSingleLookups) {
  auto overlay = MakeOverlay(/*seed=*/101, /*stored=*/300);
  Rng rng(7);
  for (net::PeerId via : {0u, 17u, 40u, 63u}) {
    // Stored and absent keys, keys the initiator owns, and duplicates.
    std::vector<Key> keys =
        KeysOwnedBy(*overlay->peer(via), /*owned=*/true, 2);
    for (int i = 0; i < 30; ++i) {
      keys.push_back(TestKey(rng.NextBounded(400)));
    }
    keys.push_back(keys[3]);
    keys.push_back(keys[0]);
    auto batch = overlay->LookupBatchSync(via, keys);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const std::set<Key> distinct(keys.begin(), keys.end());
    ASSERT_EQ(batch->size(), distinct.size()) << "via " << via;
    size_t found = 0;
    for (const Key& key : distinct) {
      auto it = batch->find(key);
      ASSERT_NE(it, batch->end());
      EXPECT_EQ(it->second, StoredUnder(*overlay, key)) << "via " << via;
      found += it->second.empty() ? 0 : 1;
    }
    EXPECT_GT(found, 0u);
  }
}

TEST(LookupBatchTest, EmptyAndLocalSetsCompleteAtOnce) {
  auto overlay = MakeOverlay(/*seed=*/102, /*stored=*/50);
  const net::TrafficStats before = overlay->transport().stats();
  auto empty = overlay->LookupBatchSync(5, std::vector<Key>{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto local = overlay->LookupBatchSync(
      5, KeysOwnedBy(*overlay->peer(5), /*owned=*/true, 3));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->size(), 3u);
  EXPECT_EQ(MessagesSince(*overlay, before), 0u);
}

TEST(LookupBatchTest, FewerMessagesThanSingleLookups) {
  // Each arm runs on its own overlay of one seed, so neither starts with
  // the replica-group adverts the other brought back.
  for (size_t n : {8u, 32u, 128u}) {
    auto batch_overlay = MakeOverlay(/*seed=*/103, /*stored=*/200);
    const std::vector<Key> keys =
        KeysOwnedBy(*batch_overlay->peer(9), /*owned=*/false, n);
    net::TrafficStats before = batch_overlay->transport().stats();
    ASSERT_TRUE(batch_overlay->LookupBatchSync(9, keys).ok());
    const uint64_t batched = MessagesSince(*batch_overlay, before);
    auto single_overlay = MakeOverlay(/*seed=*/103, /*stored=*/200);
    uint64_t singles = 0;
    for (const Key& key : keys) {
      before = single_overlay->transport().stats();
      ASSERT_TRUE(single_overlay->LookupSync(9, key).ok());
      singles += MessagesSince(*single_overlay, before);
    }
    EXPECT_LT(batched, singles) << n << " keys";
  }
}

TEST(LookupBatchTest, HealedPartitionCompletesThroughRetry) {
  // One owner of some keys (and every replica of its path) is cut off for
  // the first attempt; the keys it holds retry after request_timeout.
  auto probe = MakeOverlay(/*seed=*/104, /*stored=*/200);
  const std::vector<Key> keys =
      KeysOwnedBy(*probe->peer(3), /*owned=*/false, 40);
  std::set<net::PeerId> victims;
  for (net::PeerId p : probe->ResponsiblePeers(keys[0])) victims.insert(p);
  net::FaultSchedule faults;
  for (net::PeerId victim : victims) {
    faults.PartitionPair(0, 2 * sim::kMicrosPerSecond, victim, net::kAnyPeer);
  }
  auto overlay = MakeOverlay(/*seed=*/104, /*stored=*/200, faults);
  auto batch = overlay->LookupBatchSync(3, keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GE(overlay->transport().stats().retries_by_policy.at("lookup"), 1u);
  for (const Key& key : keys) {
    auto single = probe->LookupSync(3, key);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch->at(key), single->entries);
  }
}

TEST(LookupBatchTest, ExhaustedBudgetNamesMissingKeys) {
  // Keys of the initiator are answered locally; the five keys of a path
  // whose peers stay cut off can never be answered.
  auto probe = MakeOverlay(/*seed=*/105, /*stored=*/0);
  const net::PeerId via = 6;
  std::vector<Key> keys = KeysOwnedBy(*probe->peer(via), /*owned=*/true, 3);
  const std::vector<Key> foreign =
      KeysOwnedBy(*probe->peer(via), /*owned=*/false, 1);
  const std::vector<net::PeerId> owners = probe->ResponsiblePeers(foreign[0]);
  for (size_t i = 0; keys.size() < 8; ++i) {
    Key key = TestKey(i);
    if (probe->ResponsiblePeers(key) == owners) keys.push_back(key);
  }
  net::FaultSchedule faults;
  for (net::PeerId owner : owners) {
    faults.PartitionPair(0, net::kFaultForever, owner, net::kAnyPeer);
  }
  auto overlay = MakeOverlay(/*seed=*/105, /*stored=*/0, faults);
  auto batch = overlay->LookupBatchSync(via, keys);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(batch.status().ToString().find("5 of 8 keys unanswered"),
            std::string::npos)
      << batch.status().ToString();
  EXPECT_EQ(overlay->transport().stats().retries_by_policy.at("lookup"),
            static_cast<uint64_t>(overlay->peer(via)->options().request_retries));
}

// The peers `via` suspects, each checked to be one of its routing
// references (a first hop of its requests).
size_t SuspectedRefs(Overlay& overlay, net::PeerId via) {
  const Peer& peer = *overlay.peer(via);
  std::set<net::PeerId> refs;
  for (size_t level = 0; level < peer.path().size(); ++level) {
    for (net::PeerId ref : peer.routing().RefsAt(level)) refs.insert(ref);
  }
  size_t suspected = 0;
  for (net::PeerId p = 0; p < kPeers; ++p) {
    if (!peer.IsSuspected(p)) continue;
    EXPECT_EQ(refs.count(p), 1u) << "suspected non-reference " << p;
    ++suspected;
  }
  return suspected;
}

TEST(LookupBatchTest, TimedOutAttemptsSuspectTheirFirstHops) {
  // Every message `via` sends is lost: each attempt times out and must
  // suspect the peers it sent to (DESIGN.md §10), with the default
  // options. An attempt's suspicions expire long before the next attempt
  // times out, so those of the last attempt are what remains.
  const net::PeerId via = 3;
  net::FaultSchedule faults;
  faults.Partition(0, net::kFaultForever, via, net::kAnyPeer);

  auto inserts = MakeOverlay(/*seed=*/107, /*stored=*/0, faults);
  Entry e;
  e.key = KeysOwnedBy(*inserts->peer(via), /*owned=*/false, 1)[0];
  e.id = "lost";
  ASSERT_FALSE(inserts->InsertBatchSync(via, {e}).ok());
  EXPECT_EQ(SuspectedRefs(*inserts, via), 1u);

  auto lookups = MakeOverlay(/*seed=*/107, /*stored=*/0, faults);
  const std::vector<Key> keys =
      KeysOwnedBy(*lookups->peer(via), /*owned=*/false, 8);
  // One first hop per routing level the keys leave the initiator's path at.
  std::set<size_t> levels;
  for (const Key& key : keys) {
    levels.insert(lookups->peer(via)->path().CommonPrefixLength(key));
  }
  ASSERT_FALSE(lookups->LookupBatchSync(via, keys).ok());
  EXPECT_EQ(SuspectedRefs(*lookups, via), levels.size());
}

// A suspicion ends by expiry or by an answer, so recording one drops the
// expired ones: a peer whose requests keep failing holds only the
// suspicions of the last kSuspicionTtl.
TEST(LookupBatchTest, RecordingASuspicionDropsExpiredOnes) {
  const net::PeerId via = 3;
  net::FaultSchedule faults;
  faults.Partition(0, net::kFaultForever, via, net::kAnyPeer);
  auto overlay = MakeOverlay(/*seed=*/107, /*stored=*/0, faults);
  const Peer& peer = *overlay->peer(via);
  // A key that leaves the initiator's subtree at `level`: its first hops
  // are references of that level, and the levels' references are
  // disjoint peer sets.
  auto key_at = [&peer](size_t level) {
    for (size_t i = 0;; ++i) {
      Key key = TestKey(i);
      if (peer.path().CommonPrefixLength(key) == level) return key;
    }
  };
  // Every attempt of both lookups times out a request_timeout after the
  // one before, long after the earlier suspicions expired.
  ASSERT_FALSE(overlay->LookupBatchSync(via, std::vector<Key>{key_at(0)}).ok());
  ASSERT_FALSE(overlay->LookupBatchSync(via, std::vector<Key>{key_at(1)}).ok());
  EXPECT_EQ(overlay->transport().stats().retries_by_policy.at("lookup"),
            2u * static_cast<uint64_t>(peer.options().request_retries));
  // Only the last attempt's first hop, a level-1 reference, is suspected,
  // and the table holds nothing else.
  EXPECT_EQ(SuspectedRefs(*overlay, via), 1u);
  EXPECT_EQ(peer.suspicions_held(), 1u);
  for (net::PeerId ref : peer.routing().RefsAt(0)) {
    EXPECT_FALSE(peer.IsSuspected(ref)) << ref;
  }
}

// Ids stored under a filtered key: lookups asking for the suffixes
// "apple" and "fig" get the first three; "apple:4" holds one only at its
// start, "3:pear" none.
const std::vector<std::string> kStoredIds = {"1:apple", "2:apple", "5:fig",
                                             "apple:4", "3:pear"};
const std::vector<std::string> kSuffixes = {"apple", "fig"};
const std::vector<std::string> kMatchingIds = {"1:apple", "2:apple",
                                               "5:fig"};

// Stores kStoredIds under `key` at every responsible peer.
void StoreFilterIds(Overlay& overlay, const Key& key) {
  for (const std::string& id : kStoredIds) {
    for (net::PeerId p : overlay.ResponsiblePeers(key)) {
      overlay.peer(p)->ApplyLocal(Entry{key, id, 1, false});
    }
  }
}

// The ids a filtered lookup of `key` from `via` returns, sorted.
std::vector<std::string> FilteredIds(Overlay& overlay, net::PeerId via,
                                     const Key& key) {
  auto batch = overlay.LookupBatchSync(via, KeySuffixes{{key, kSuffixes}});
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<std::string> ids;
  if (!batch.ok()) return ids;
  for (const Entry& e : batch->at(key)) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LookupBatchTest, SuffixesFilterWhereverTheKeyIsServed) {
  auto overlay = MakeOverlay(/*seed=*/108, /*stored=*/0);
  const net::PeerId via = 12;
  const Key local = KeysOwnedBy(*overlay->peer(via), /*owned=*/true, 1)[0];
  // Two keys of one foreign path: the first is routed and brings back the
  // path's advert, the second then goes one hop to an advertised replica.
  const Key routed = KeysOwnedBy(*overlay->peer(via), /*owned=*/false, 1)[0];
  const std::vector<net::PeerId> owners = overlay->ResponsiblePeers(routed);
  ASSERT_EQ(owners.size(), 2u);
  Key redirected;
  for (size_t i = 0; redirected.empty(); ++i) {
    if (TestKey(i) != routed &&
        overlay->ResponsiblePeers(TestKey(i)) == owners) {
      redirected = TestKey(i);
    }
  }
  for (const Key& key : {local, routed, redirected}) {
    StoreFilterIds(*overlay, key);
  }

  // Served by the initiator itself, without a message.
  net::TrafficStats before = overlay->transport().stats();
  EXPECT_EQ(FilteredIds(*overlay, via, local), kMatchingIds);
  EXPECT_EQ(MessagesSince(*overlay, before), 0u);
  // Served at the end of a routed walk.
  const PeerCounters& counters = overlay->peer(via)->counters();
  EXPECT_EQ(FilteredIds(*overlay, via, routed), kMatchingIds);
  EXPECT_EQ(counters.fanout_redirects, 0u);
  // Served by a replica the advert named.
  EXPECT_EQ(FilteredIds(*overlay, via, redirected), kMatchingIds);
  EXPECT_EQ(counters.fanout_redirects, 1u);
  // Without suffixes, every entry of the key.
  auto all = overlay->LookupBatchSync(via, std::vector<Key>{redirected});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->at(redirected).size(), kStoredIds.size());
}

TEST(LookupBatchTest, RetryCarriesTheSuffixes) {
  // The key's owners are cut off for the first attempt; the retry after
  // request_timeout asks for the same suffixes.
  auto overlay = MakeOverlay(/*seed=*/104, /*stored=*/0);
  const net::PeerId via = 3;
  const Key key = KeysOwnedBy(*overlay->peer(via), /*owned=*/false, 1)[0];
  net::FaultSchedule faults;
  for (net::PeerId owner : overlay->ResponsiblePeers(key)) {
    faults.PartitionPair(0, 2 * sim::kMicrosPerSecond, owner, net::kAnyPeer);
  }
  overlay = MakeOverlay(/*seed=*/104, /*stored=*/0, faults);
  StoreFilterIds(*overlay, key);
  EXPECT_EQ(FilteredIds(*overlay, via, key), kMatchingIds);
  EXPECT_GE(overlay->transport().stats().retries_by_policy.at("lookup"), 1u);
}

TEST(LookupBatchTest, GarbageBatchPayloadIsDropped) {
  auto overlay = MakeOverlay(/*seed=*/106, /*stored=*/20);
  for (net::MessageType type :
       {net::MessageType::kLookup, net::MessageType::kLookupReply}) {
    net::Message m;
    m.type = type;
    m.src = 0;
    m.dst = 3;
    m.request_id = 777;
    m.payload = "\xFF\x80\x80garbage";
    overlay->transport().Send(std::move(m));
  }
  overlay->scheduler().RunUntilIdle();
  auto batch = overlay->LookupBatchSync(
      3, KeysOwnedBy(*overlay->peer(3), /*owned=*/false, 10));
  EXPECT_TRUE(batch.ok());
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
