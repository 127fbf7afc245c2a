// The routed BulkInsert pipeline: a batch split by the key-set router must
// reach every owner, respect versioned-upsert semantics, replicate, travel
// in bounded sub-batches, and survive message loss, duplication and
// routing cycles through idempotent retries of the unstored entries.
// Entries under a replica-group advert go one hop to one replica
// (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

Entry MakeEntry(const std::string& value, uint64_t version = 1) {
  Entry e;
  e.key = OpHash(value);
  e.id = "id-" + value;
  e.version = version;
  return e;
}

// An entry whose key starts with `prefix` (random bits after it) and
// whose id is padded with `pad_bytes` filler bytes.
Entry EntryUnder(const std::string& prefix, size_t i, size_t pad_bytes = 8) {
  Rng rng(500 + i);
  std::string bits = prefix;
  while (bits.size() < kKeyBits) {
    bits.push_back(rng.NextBounded(2) == 0 ? '0' : '1');
  }
  Entry e;
  e.key = Key::FromBits(bits);
  e.id = "id-" + prefix + "-" + std::to_string(i) + "-" +
         std::string(pad_bytes, 'p');
  e.version = 1;
  return e;
}

std::vector<Entry> MakeBatch(size_t n, const std::string& tag) {
  std::vector<Entry> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(MakeEntry(tag + "-" + std::to_string(i)));
  }
  return batch;
}

class BulkInsertTest : public ::testing::Test {
 protected:
  void Build(size_t peers, size_t replication, double loss, uint64_t seed,
             PeerOptions peer = {}, net::FaultSchedule faults = {}) {
    OverlayOptions options;
    options.seed = seed;
    options.replication = replication;
    options.loss_probability = loss;
    options.peer = peer;
    options.fault_schedule = std::move(faults);
    overlay_ = std::make_unique<Overlay>(options);
    overlay_->AddPeers(peers);
    overlay_->BuildBalanced();
  }

  // kBulkInsert messages sent since `before`.
  uint64_t BulkInsertsSince(const net::TrafficStats& before) const {
    const auto delta = overlay_->transport().stats().Since(before);
    auto it = delta.per_type.find(net::MessageType::kBulkInsert);
    return it == delta.per_type.end() ? 0 : it->second;
  }

  std::unique_ptr<Overlay> overlay_;
};

TEST_F(BulkInsertTest, BatchReachesEveryOwner) {
  Build(16, /*replication=*/1, /*loss=*/0, /*seed=*/7);
  auto batch = MakeBatch(64, "bulk");
  ASSERT_TRUE(overlay_->InsertBatchSync(3, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  for (const Entry& e : batch) {
    auto found = overlay_->LookupSync(11, e.key);
    ASSERT_TRUE(found.ok()) << e.id;
    ASSERT_EQ(found->entries.size(), 1u) << e.id;
    EXPECT_EQ(found->entries[0], e);
  }
}

TEST_F(BulkInsertTest, MatchesPerEntryInsertResults) {
  // The same data via InsertBatch and via per-entry Insert must land
  // identically (same owners, same stored bytes).
  Build(16, /*replication=*/1, /*loss=*/0, /*seed=*/8);
  OverlayOptions options;
  options.seed = 8;
  Overlay single(options);
  single.AddPeers(16);
  single.BuildBalanced();

  auto batch = MakeBatch(48, "cmp");
  ASSERT_TRUE(overlay_->InsertBatchSync(0, batch).ok());
  for (const Entry& e : batch) {
    ASSERT_TRUE(single.InsertSync(0, e).ok());
  }
  overlay_->scheduler().RunUntilIdle();
  single.scheduler().RunUntilIdle();
  for (size_t p = 0; p < 16; ++p) {
    const auto id = static_cast<net::PeerId>(p);
    EXPECT_EQ(overlay_->peer(id)->store().GetAll(),
              single.peer(id)->store().GetAll())
        << "peer " << p;
  }
}

TEST_F(BulkInsertTest, EmptyBatchCompletesImmediately) {
  Build(4, 1, 0, 9);
  EXPECT_TRUE(overlay_->InsertBatchSync(1, {}).ok());
}

TEST_F(BulkInsertTest, StaleVersionsInBatchAreIgnored) {
  Build(8, 1, 0, 10);
  Entry fresh = MakeEntry("versioned", /*version=*/5);
  ASSERT_TRUE(overlay_->InsertSync(0, fresh).ok());
  std::vector<Entry> batch = {MakeEntry("versioned", /*version=*/2)};
  ASSERT_TRUE(overlay_->InsertBatchSync(4, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  auto found = overlay_->LookupSync(2, fresh.key);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->entries.size(), 1u);
  EXPECT_EQ(found->entries[0], fresh);
  EXPECT_EQ(found->entries[0].version, 5u);
}

TEST_F(BulkInsertTest, BatchReplicatesToReplicaGroup) {
  Build(16, /*replication=*/2, /*loss=*/0, /*seed=*/11);
  auto batch = MakeBatch(32, "repl");
  ASSERT_TRUE(overlay_->InsertBatchSync(5, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  // Every entry must be present at more than one peer (owner + at least
  // one rumor-push replica).
  for (const Entry& e : batch) {
    size_t holders = 0;
    for (net::PeerId p : overlay_->ResponsiblePeers(e.key)) {
      if (!overlay_->peer(p)->store().Get(e.key).empty()) ++holders;
    }
    EXPECT_GE(holders, 2u) << e.id;
  }
}

TEST_F(BulkInsertTest, SurvivesMessageLossViaIdempotentRetry) {
  Build(16, /*replication=*/1, /*loss=*/0.15, /*seed=*/12);
  auto batch = MakeBatch(40, "lossy");
  // Retries are whole-batch and idempotent; with the default retry budget
  // the batch should make it through 15% loss. Even if the final status
  // reports a failure, re-running the batch must never duplicate data.
  Status status = overlay_->InsertBatchSync(2, batch);
  if (!status.ok()) {
    status = overlay_->InsertBatchSync(2, batch);
  }
  overlay_->scheduler().RunUntilIdle();
  size_t found_count = 0;
  for (const Entry& e : batch) {
    auto found = overlay_->LookupSync(9, e.key);
    if (found.ok() && found->entries.size() == 1) ++found_count;
  }
  EXPECT_GE(found_count, batch.size() * 9 / 10);
}

TEST_F(BulkInsertTest, GarbageBulkInsertPayloadIsDropped) {
  Build(8, 1, 0, 13);
  net::Message m;
  m.type = net::MessageType::kBulkInsert;
  m.src = 0;
  m.dst = 3;
  m.request_id = 777;
  m.payload = "\xFF\x80\x80garbage";
  overlay_->transport().Send(std::move(m));
  overlay_->scheduler().RunUntilIdle();
  // The network still works afterwards.
  auto batch = MakeBatch(8, "post-garbage");
  EXPECT_TRUE(overlay_->InsertBatchSync(1, batch).ok());
}

TEST_F(BulkInsertTest, KeysLeavingAtOneLevelTravelAsOneMessage) {
  // 16 peers, 4 per leaf "00", "01", "10", "11": peer 0 ("00") keeps up to
  // four references into "01" at level 1, all of them owners of the keys.
  Build(16, /*replication=*/4, /*loss=*/0, /*seed=*/14);
  ASSERT_EQ(overlay_->peer(0)->path().bits(), "00");
  ASSERT_GT(overlay_->peer(0)->routing().RefsAt(1).size(), 1u);
  std::vector<Entry> batch;
  for (size_t i = 0; i < 16; ++i) batch.push_back(EntryUnder("01", i));
  const net::TrafficStats before = overlay_->transport().stats();
  ASSERT_TRUE(overlay_->InsertBatchSync(0, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  EXPECT_EQ(BulkInsertsSince(before), 1u);
  for (const Entry& e : batch) {
    size_t holders = 0;
    for (net::PeerId p : overlay_->ResponsiblePeers(e.key)) {
      holders += overlay_->peer(p)->store().Get(e.key).size();
    }
    EXPECT_GE(holders, 1u) << e.id;
  }
}

TEST_F(BulkInsertTest, RoutingCycleDeadEndsAtTheHopCap) {
  // Peers 0 ("00") and 1 ("01") each name only the other for the "1"
  // subtree, so a key under "1" bounces between them.
  Build(4, /*replication=*/1, /*loss=*/0, /*seed=*/15);
  Peer* a = overlay_->peer(0);
  Peer* b = overlay_->peer(1);
  ASSERT_EQ(a->path().bits(), "00");
  ASSERT_EQ(b->path().bits(), "01");
  for (net::PeerId p : {2u, 3u}) {
    a->routing().RemoveEverywhere(p);
    b->routing().RemoveEverywhere(p);
  }
  a->routing().AddRef(0, b->id(), &a->rng());
  b->routing().AddRef(0, a->id(), &b->rng());

  const net::TrafficStats before = overlay_->transport().stats();
  const sim::SimTime start = overlay_->scheduler().Now();
  Status status = overlay_->InsertBatchSync(0, {EntryUnder("1", 0)});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  // Every attempt dead-ends after 2·kKeyBits hops and retries after only
  // its backoff, long before any deadline.
  const auto attempts = static_cast<uint64_t>(a->options().request_retries) + 1;
  EXPECT_EQ(BulkInsertsSince(before), attempts * 2 * kKeyBits);
  EXPECT_LT(overlay_->scheduler().Now() - start,
            a->options().request_timeout);
  EXPECT_EQ(overlay_->transport().stats().retries_by_policy.at("bulk-insert"),
            attempts - 1);
}

TEST_F(BulkInsertTest, LargeGroupsSplitIntoChunks) {
  PeerOptions peer;
  peer.chunk_bytes = 1024;
  Build(16, /*replication=*/4, /*loss=*/0, /*seed=*/16, peer);
  std::vector<Entry> batch;
  size_t bytes = 0;
  for (size_t i = 0; i < 40; ++i) {
    batch.push_back(EntryUnder("01", i, /*pad_bytes=*/100));
    bytes += batch.back().EncodedSize();
  }
  net::TrafficStats before = overlay_->transport().stats();
  ASSERT_TRUE(overlay_->InsertBatchSync(0, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  EXPECT_GE(BulkInsertsSince(before), bytes / peer.chunk_bytes);
  // Entry bytes stay within the budget; the rest is the frame: message
  // header, initiator, entry count and one slot varint per entry.
  EXPECT_LE(overlay_->transport().stats().per_type_max_bytes.at(
                net::MessageType::kBulkInsert),
            net::Message::kHeaderBytes + peer.chunk_bytes + 16);

  // One entry larger than the budget still travels, alone.
  const Entry big = EntryUnder("11", 0, /*pad_bytes=*/4096);
  before = overlay_->transport().stats();
  ASSERT_TRUE(overlay_->InsertBatchSync(0, {big}).ok());
  EXPECT_GE(BulkInsertsSince(before), 1u);
  auto found = overlay_->LookupSync(0, big.key);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->entries.size(), 1u);
  EXPECT_EQ(found->entries[0], big);
}

TEST_F(BulkInsertTest, DuplicatedRepliesNeverAcknowledgeALostBranch) {
  // Peer 0 ("00") sends one entry toward "01" and one toward "11"; the
  // owner of "11" is cut off for good, and every message to peer 0 arrives
  // twice. Counting a duplicated reply twice would finish the batch before
  // the lost branch is stored.
  net::FaultSchedule faults;
  faults.Duplicate(0, net::kFaultForever, net::kAnyPeer, 0, 1.0);
  faults.PartitionPair(0, net::kFaultForever, 3, net::kAnyPeer);
  Build(4, /*replication=*/1, /*loss=*/0, /*seed=*/17, PeerOptions{}, faults);
  ASSERT_EQ(overlay_->peer(3)->path().bits(), "11");
  Status status = overlay_->InsertBatchSync(
      0, {EntryUnder("01", 0), EntryUnder("11", 1)});
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_NE(status.ToString().find("1 of 2 entries unstored"),
            std::string::npos)
      << status.ToString();
}

// One-hop writes (DESIGN.md §8). 24 peers in replication 3 form eight
// leaves of depth 3; peer i serves leaf i % 8, so peer 0 ("000") is
// outside the groups of "101" (peers 5, 13, 21) and "110" (6, 14, 22).
class OneHopWriteTest : public BulkInsertTest {
 protected:
  static constexpr net::PeerId kWriter = 0;

  void Build(size_t replication, PeerOptions peer = {}) {
    BulkInsertTest::Build(24, replication, /*loss=*/0, /*seed=*/40, peer);
    overlay_->transport().EnableDeliveryTrace();
  }

  // kBulkInsert messages delivered at or after `since`, per (src, dst).
  std::map<std::pair<net::PeerId, net::PeerId>, int> BulkInsertsDeliveredSince(
      sim::SimTime since) const {
    std::map<std::pair<net::PeerId, net::PeerId>, int> delivered;
    std::istringstream trace(overlay_->transport().DeliveryTrace());
    std::string line;
    while (std::getline(trace, line)) {
      unsigned long long when = 0;
      unsigned src = 0;
      unsigned dst = 0;
      char type[32];
      if (std::sscanf(line.c_str(), "t=%llu %u->%u %31s", &when, &src, &dst,
                      type) == 4 &&
          when >= static_cast<unsigned long long>(since) &&
          std::string(type) == "BulkInsert") {
        ++delivered[{src, dst}];
      }
    }
    return delivered;
  }

  // Live peers responsible for `e` that do not hold it.
  std::vector<net::PeerId> MissingAt(const Entry& e) const {
    std::vector<net::PeerId> missing;
    for (net::PeerId p : overlay_->ResponsiblePeers(e.key)) {
      const auto held = overlay_->peer(p)->store().Get(e.key);
      if (held.size() != 1 || !(held[0] == e)) missing.push_back(p);
    }
    return missing;
  }
};

TEST_F(OneHopWriteTest, InsertUnderAnAdvertGoesOneHopToOneReplica) {
  Build(/*replication=*/3);
  ASSERT_EQ(overlay_->peer(kWriter)->path().bits(), "000");
  // The first insert under each path routes; its reply carries the group.
  // Draining the queue after it runs only the replica pushes: the
  // finished attempt's deadline is cancelled, so the advert survives.
  ASSERT_TRUE(overlay_
                  ->InsertBatchSync(kWriter, {EntryUnder("101", 0),
                                              EntryUnder("110", 0)})
                  .ok());
  overlay_->scheduler().RunUntilIdle();
  EXPECT_EQ(overlay_->peer(kWriter)->advert_cache().size(), 2u);

  std::vector<Entry> batch;
  for (size_t i = 1; i <= 8; ++i) {
    batch.push_back(EntryUnder("101", i));
    batch.push_back(EntryUnder("110", i));
  }
  const sim::SimTime start = overlay_->scheduler().Now();
  ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, batch).ok());
  // One message per group, from the writer to one member: no trie walk,
  // and the group's batch is not split across its replicas.
  const auto delivered = BulkInsertsDeliveredSince(start);
  ASSERT_EQ(delivered.size(), 2u);
  std::set<std::string> groups;
  for (const auto& [hop, count] : delivered) {
    EXPECT_EQ(hop.first, kWriter);
    EXPECT_EQ(count, 1);
    groups.insert(overlay_->peer(hop.second)->path().bits());
  }
  EXPECT_EQ(groups, (std::set<std::string>{"101", "110"}));

  // The replica push carries every entry to the rest of its group.
  overlay_->scheduler().RunUntilIdle();
  for (const Entry& e : batch) {
    EXPECT_EQ(overlay_->ResponsiblePeers(e.key).size(), 3u);
    EXPECT_TRUE(MissingAt(e).empty()) << e.id;
  }
}

// A finished operation leaves no timer behind: draining the queue after
// a lookup or an insert runs only work still in flight, so the clock stops
// where that work ends.
TEST_F(OneHopWriteTest, FinishedOperationsLeaveNoTimer) {
  Build(/*replication=*/3);
  const Entry e = EntryUnder("101", 0);
  ASSERT_TRUE(overlay_->InsertSync(kWriter, e).ok());
  overlay_->scheduler().RunUntilIdle();  // The replica push.
  EXPECT_EQ(overlay_->scheduler().pending_events(), 0u);

  const sim::SimTime before = overlay_->scheduler().Now();
  auto found = overlay_->LookupSync(kWriter, e.key);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_EQ(found->entries.size(), 1u);
  const sim::SimTime done = overlay_->scheduler().Now();
  EXPECT_GT(done, before);
  EXPECT_EQ(overlay_->scheduler().RunUntilIdle(), 0u);
  EXPECT_EQ(overlay_->scheduler().Now(), done);
  EXPECT_EQ(overlay_->peer(kWriter)->key_sets_in_flight(), 0u);
}

TEST_F(OneHopWriteTest, CrashedReplicaIsDroppedAndTheRetryStoresElsewhere) {
  PeerOptions peer;
  peer.request_timeout = 200 * sim::kMicrosPerMilli;
  Build(/*replication=*/3, peer);
  ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, {EntryUnder("101", 0)}).ok());
  const auto group = overlay_->ResponsiblePeers(EntryUnder("101", 0).key);
  ASSERT_EQ(group.size(), 3u);
  const net::PeerId crashed = group[1];
  overlay_->Crash(crashed);

  // The writer rotates over the three members, one per insert: exactly
  // one insert meets the crashed replica, times out and drops it from the
  // advert, and no later insert is sent there.
  std::vector<Entry> acked;
  int slow = 0;
  for (size_t i = 1; i <= 9; ++i) {
    const Entry e = EntryUnder("101", i);
    const sim::SimTime start = overlay_->scheduler().Now();
    ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, {e}).ok()) << i;
    acked.push_back(e);
    if (overlay_->scheduler().Now() - start >= peer.request_timeout) ++slow;
  }
  EXPECT_EQ(slow, 1);
  // Every acked write is held by both live members.
  overlay_->scheduler().RunUntilIdle();
  for (const Entry& e : acked) {
    EXPECT_EQ(overlay_->ResponsiblePeers(e.key).size(), 2u);
    EXPECT_TRUE(MissingAt(e).empty()) << e.id;
  }
}

// The consistency a writer gets (DESIGN.md §8): the replica that stores a
// write pushes it to the rest of its group before it sends the ack, on
// links of equal latency, so the push lands first and every read that
// starts at the ack instant, from any peer, sees the write.
TEST_F(OneHopWriteTest, ReadsIssuedAtTheAckSeeTheWrite) {
  // Default latency model: every hop takes 1 ms.
  Build(/*replication=*/3);
  ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, {EntryUnder("101", 0)}).ok());
  int reads = 0;
  int answered = 0;
  int stale = 0;
  for (size_t i = 1; i <= 6; ++i) {
    const Entry e = EntryUnder("101", i);
    bool acked = false;
    overlay_->peer(kWriter)->Insert(e, [&, e](Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      acked = true;
      // At the ack instant, every live peer reads the key.
      for (net::PeerId p : overlay_->AlivePeers()) {
        ++reads;
        overlay_->peer(p)->Lookup(
            e.key, [&, e](Result<LookupResult> r) {
              ++answered;
              if (!r.ok() || r->entries.size() != 1 || !(r->entries[0] == e)) {
                ++stale;
              }
            });
      }
    });
    overlay_->scheduler().RunUntil(
        [&] { return acked && answered == reads; });
  }
  std::printf("stale reads at the ack instant: %d of %d\n", stale, reads);
  EXPECT_EQ(reads, 6 * 24);
  EXPECT_EQ(stale, 0) << stale << " of " << reads << " reads were stale";
}

TEST_F(OneHopWriteTest, ReplicationOneKeepsTrieRouting) {
  Build(/*replication=*/1);
  ASSERT_EQ(overlay_->peer(kWriter)->path().bits(), "00000");
  std::vector<Entry> batch;
  for (size_t i = 0; i < 4; ++i) batch.push_back(EntryUnder("11101", i));
  ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, {batch[0]}).ok());
  const sim::SimTime start = overlay_->scheduler().Now();
  ASSERT_TRUE(overlay_->InsertBatchSync(kWriter, batch).ok());
  overlay_->scheduler().RunUntilIdle();
  // A peer without a replica group advertises nothing, so the second
  // insert walks the trie again: it reaches the owner after more than
  // one hop.
  EXPECT_EQ(overlay_->peer(kWriter)->advert_cache().size(), 0u);
  const auto delivered = BulkInsertsDeliveredSince(start);
  EXPECT_GT(delivered.size(), 1u);
  for (const Entry& e : batch) EXPECT_TRUE(MissingAt(e).empty()) << e.id;
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
