// Replica push with an informed set (DESIGN.md §13): a push names the peers
// it has already reached, and receivers forward fresh entries only to
// replicas outside that set. A fully linked group pays one push per
// replica; a stale replica list still lets the rumor reach the members its
// sender does not know.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pgrid/messages.h"
#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

Entry MakeVersioned(const std::string& value, uint64_t version) {
  Entry e;
  e.key = OpHash(value);
  e.id = value;
  e.version = version;
  return e;
}

OverlayOptions PushOptions(uint64_t seed, size_t replication, size_t fanout) {
  OverlayOptions options;
  options.seed = seed;
  options.replication = replication;
  options.peer.gossip_fanout = fanout;
  return options;
}

uint64_t ReplicaPushes(const net::TrafficStats& stats) {
  auto it = stats.per_type.find(net::MessageType::kReplicaPush);
  return it == stats.per_type.end() ? 0 : it->second;
}

bool Holds(const Overlay& overlay, net::PeerId peer, const Entry& e) {
  for (const Entry& stored : overlay.peer(peer)->store().Get(e.key)) {
    if (stored.id == e.id && stored.version == e.version) return true;
  }
  return false;
}

// Every member of the group lists every other member as a replica.
void ExpectFullyLinked(const Overlay& overlay,
                       const std::vector<net::PeerId>& group) {
  for (net::PeerId member : group) {
    const auto& replicas = overlay.peer(member)->routing().replicas();
    for (net::PeerId other : group) {
      if (other == member) continue;
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), other),
                replicas.end())
          << "peer " << member << " does not list replica " << other;
    }
  }
}

// --- Codec ------------------------------------------------------------------

TEST(EntryBatchCodecTest, RoundTripsInformedSet) {
  EntryBatch batch;
  batch.entries.push_back(MakeVersioned("doc", 3));
  batch.gossip = true;
  batch.informed = {0, 7, 300, 70000};
  auto back = EntryBatch::Decode(batch.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].id, "doc");
  EXPECT_EQ(back->entries[0].version, 3u);
  EXPECT_TRUE(back->gossip);
  EXPECT_FALSE(back->reroute_if_foreign);
  EXPECT_EQ(back->informed, batch.informed);
}

TEST(EntryBatchCodecTest, RejectsTruncatedInformedList) {
  EntryBatch batch;
  batch.entries.push_back(MakeVersioned("doc", 1));
  batch.gossip = true;
  batch.informed = {1, 2, 300};  // 300 takes two varint bytes.
  const std::string bytes = batch.Encode();
  for (size_t cut = 1; cut <= 4; ++cut) {
    EXPECT_FALSE(EntryBatch::Decode(bytes.substr(0, bytes.size() - cut)).ok())
        << "decoded with " << cut << " bytes cut";
  }
}

TEST(EntryBatchCodecTest, RejectsCountBeyondBytesLeft) {
  EntryBatch batch;
  batch.entries.push_back(MakeVersioned("doc", 1));
  std::string bytes = batch.Encode();
  ASSERT_EQ(bytes.back(), '\0');  // The empty informed list's count.
  bytes.back() = 5;               // Claims five ids...
  bytes += std::string(2, '\1');  // ...but only two bytes follow.
  auto decoded = EntryBatch::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// --- Push protocol ----------------------------------------------------------

// A 3-peer group at fanout 2: the owner reaches both replicas, and both see
// the whole group in the informed set, so neither forwards.
TEST(ReplicaPushTest, FullyLinkedGroupGetsOnePushPerReplica) {
  Overlay overlay(PushOptions(21, 3, 2));
  overlay.AddPeers(12);
  overlay.BuildBalanced();
  for (int u = 0; u < 10; ++u) {
    Entry e = MakeVersioned("doc-" + std::to_string(u), 1);
    const auto group = overlay.ResponsiblePeers(e.key);
    ASSERT_EQ(group.size(), 3u);
    ExpectFullyLinked(overlay, group);
    const auto before = overlay.transport().stats();
    ASSERT_TRUE(overlay.InsertSync(static_cast<net::PeerId>(u), e).ok());
    overlay.scheduler().RunUntilIdle();
    EXPECT_EQ(ReplicaPushes(overlay.transport().stats().Since(before)), 2u)
        << "update " << u;
    for (net::PeerId member : group) {
      EXPECT_TRUE(Holds(overlay, member, e))
          << "replica " << member << " missed update " << u;
    }
  }
}

// At fanout 1 each push names every peer reached so far, so the rumor walks
// the group as a chain and cannot die by bouncing back to its origin.
TEST(ReplicaPushTest, FanoutOneReachesEveryReplica) {
  Overlay overlay(PushOptions(22, 4, 1));
  overlay.AddPeers(16);
  overlay.BuildBalanced();
  for (int u = 0; u < 20; ++u) {
    Entry e = MakeVersioned("update-" + std::to_string(u), 2);
    const auto group = overlay.ResponsiblePeers(e.key);
    ASSERT_EQ(group.size(), 4u);
    const auto before = overlay.transport().stats();
    ASSERT_TRUE(overlay.InsertSync(static_cast<net::PeerId>(u % 16), e).ok());
    overlay.scheduler().RunUntilIdle();
    EXPECT_EQ(ReplicaPushes(overlay.transport().stats().Since(before)), 3u)
        << "update " << u;
    for (net::PeerId member : group) {
      EXPECT_TRUE(Holds(overlay, member, e))
          << "replica " << member << " missed update " << u;
    }
  }
}

// The owner knows only one of its two replicas. That replica's list names
// the third member, which the informed set does not, so one forward
// reaches it.
TEST(ReplicaPushTest, StaleListReachesUnknownMemberThroughOneForward) {
  Overlay overlay(PushOptions(23, 3, 2));
  overlay.AddPeers(12);
  overlay.BuildBalanced();
  Entry e = MakeVersioned("stale-list doc", 1);
  const auto group = overlay.ResponsiblePeers(e.key);
  ASSERT_EQ(group.size(), 3u);
  ExpectFullyLinked(overlay, group);
  const net::PeerId owner = group[0];
  const net::PeerId unknown = group[2];
  overlay.peer(owner)->routing().RemoveReplica(unknown);
  ASSERT_EQ(overlay.peer(owner)->routing().replicas().size(), 1u);

  const auto before = overlay.transport().stats();
  ASSERT_TRUE(overlay.InsertSync(owner, e).ok());
  overlay.scheduler().RunUntilIdle();
  // The owner's push plus exactly one forward.
  EXPECT_EQ(ReplicaPushes(overlay.transport().stats().Since(before)), 2u);
  for (net::PeerId member : group) {
    EXPECT_TRUE(Holds(overlay, member, e)) << "replica " << member;
  }
}

// A leaving peer names its whole group as informed: each replica applies the
// handoff and forwards none of it, even the entries fresh to it.
TEST(ReplicaPushTest, GracefulLeaveHandoffIsNotReforwarded) {
  Overlay overlay(PushOptions(24, 3, 2));
  overlay.AddPeers(12);
  overlay.BuildBalanced();
  Entry e = MakeVersioned("memtable delta", 4);
  const auto group = overlay.ResponsiblePeers(e.key);
  ASSERT_EQ(group.size(), 3u);
  ExpectFullyLinked(overlay, group);
  const net::PeerId leaver = group[0];
  // Only the leaver holds the entry, as if its push had been lost.
  ASSERT_TRUE(overlay.peer(leaver)->store().Apply(e));

  const auto before = overlay.transport().stats();
  overlay.peer(leaver)->GracefulLeave();
  overlay.scheduler().RunUntilIdle();
  EXPECT_EQ(ReplicaPushes(overlay.transport().stats().Since(before)), 2u);
  for (net::PeerId member : group) {
    EXPECT_TRUE(Holds(overlay, member, e)) << "replica " << member;
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
