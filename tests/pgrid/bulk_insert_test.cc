// The routed BulkInsert pipeline: a batch split by the key-set router must
// reach every owner, respect versioned-upsert semantics, replicate, travel
// in bounded sub-batches, and survive message loss, duplication and
// routing cycles through idempotent retries of the unstored entries.
#include <gtest/gtest.h>

#include <set>
#include <string>
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
  // Every attempt dead-ends after 2·kKeyBits hops and retries at once,
  // long before any deadline.
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

}  // namespace
}  // namespace pgrid
}  // namespace unistore
