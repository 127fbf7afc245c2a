// Replica repair via manifest-delta snapshot shipping (DESIGN.md §9).
//
// Covers the repair protocol end to end: the chunk-budget bound on every
// wire message (no more unbounded full-state replies), deterministic
// multi-replica failover, the memtable fallback entry stream, the repair
// codecs, idempotent run splices, and crash_recovery_test-style
// kill-point sweeps — donor killed before the manifest reply, donor
// killed mid-chunk, and repairer killed mid-splice by injected I/O
// faults (disk-backed peers), after which the repaired
// replica must end byte-identical to the donor or cleanly restartable.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "pgrid/backend_env.h"
#include "pgrid/messages.h"
#include "pgrid/overlay.h"
#include "pgrid/run_summary.h"

namespace unistore {
namespace pgrid {
namespace {

using net::MessageType;
using net::PeerId;
using net::TrafficStats;
using storage::MemEnv;

Entry MakeEntry(const std::string& value, const std::string& id,
                uint64_t version) {
  Entry e;
  e.key = OpHash(value);
  e.id = id;
  e.version = version;
  return e;
}

// Order-sensitive digest of a store's full logical entry stream
// (tombstones included): equal digests <=> byte-identical scan streams.
uint32_t StoreDigest(const LocalStore& store) {
  RunChecksum sum;
  store.ScanAll([&sum](const EntryView& e) {
    sum.Add(e);
    return true;
  });
  return sum.crc;
}

// A batch of distinct entries derived from (tag, count).
std::vector<Entry> MakeBatch(const std::string& tag, size_t count,
                             uint64_t version = 1) {
  std::vector<Entry> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(MakeEntry(tag + "-" + std::to_string(i), "id", version));
  }
  return out;
}

// --- Wire codecs -----------------------------------------------------------

TEST(RepairCodecTest, ManifestPullReplyRoundTrips) {
  ManifestPullReply reply;
  reply.runs = {{1, 100, 0xDEADBEEF}, {7, 3, 0}, {42, 1u << 20, 0xFFFFFFFF}};
  reply.memtable_entries = 17;
  reply.donor_path = Key::FromBits("0110");
  auto decoded = ManifestPullReply::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->runs.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->runs[i].run_id, reply.runs[i].run_id);
    EXPECT_EQ(decoded->runs[i].entry_count, reply.runs[i].entry_count);
    EXPECT_EQ(decoded->runs[i].checksum, reply.runs[i].checksum);
  }
  EXPECT_EQ(decoded->memtable_entries, 17u);
  EXPECT_EQ(decoded->donor_path, reply.donor_path);
}

TEST(RepairCodecTest, RunFetchRequestRoundTrips) {
  RunFetchRequest req;
  req.run_id = kMemtableRunId;
  req.expected_checksum = 0xABCD1234;
  req.start_entry = 9999;
  req.max_bytes = 64 * 1024;
  auto decoded = RunFetchRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->run_id, kMemtableRunId);
  EXPECT_EQ(decoded->expected_checksum, 0xABCD1234u);
  EXPECT_EQ(decoded->start_entry, 9999u);
  EXPECT_EQ(decoded->max_bytes, 64u * 1024u);
}

TEST(RepairCodecTest, RunFetchReplyRoundTripsAndRejectsBadCode) {
  RunFetchReply reply;
  reply.code = RunFetchReply::kOk;
  reply.run_id = 5;
  reply.start_entry = 10;
  reply.total_entries = 25;
  reply.done = true;
  reply.block = "entry bytes here";
  reply.chunk_crc = Crc32c(reply.block);
  auto decoded = RunFetchReply::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->run_id, 5u);
  EXPECT_EQ(decoded->start_entry, 10u);
  EXPECT_EQ(decoded->total_entries, 25u);
  EXPECT_TRUE(decoded->done);
  EXPECT_EQ(decoded->block, "entry bytes here");
  EXPECT_EQ(decoded->chunk_crc, Crc32c("entry bytes here"));

  reply.code = 99;
  EXPECT_FALSE(RunFetchReply::Decode(reply.Encode()).ok());
}

// --- Run summaries ---------------------------------------------------------

TEST(RunSummaryTest, IdenticalContentMatchesAcrossStores) {
  LocalStore a;
  LocalStore b;
  std::vector<Entry> batch = MakeBatch("sum", 64);
  a.BulkLoad(batch);
  b.BulkLoad(batch);
  auto sa = a.RunSummaries();
  auto sb = b.RunSummaries();
  ASSERT_EQ(sa.size(), 1u);
  ASSERT_EQ(sb.size(), 1u);
  // Ids are per-store, content is the match key.
  EXPECT_EQ(sa[0].entry_count, sb[0].entry_count);
  EXPECT_EQ(sa[0].checksum, sb[0].checksum);

  // Different content => different checksum.
  LocalStore c;
  c.BulkLoad(MakeBatch("sum", 64, /*version=*/2));
  auto sc = c.RunSummaries();
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_NE(sc[0].checksum, sa[0].checksum);
}

TEST(RunSummaryTest, RunIdsSurviveLookupAndCompactionInvalidatesThem) {
  LocalStoreOptions options;
  options.memtable_flush_threshold = 4;
  LocalStore store(options);
  store.BulkLoad(MakeBatch("r1", 16));
  store.BulkLoad(MakeBatch("r2", 16));
  auto summaries = store.RunSummaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_NE(summaries[0].run_id, summaries[1].run_id);

  RunSummary got;
  ASSERT_TRUE(store.RunSummaryById(summaries[0].run_id, &got));
  EXPECT_EQ(got.checksum, summaries[0].checksum);
  EXPECT_EQ(got.entry_count, summaries[0].entry_count);

  store.Compact();
  // The old run ids are gone; the compacted run has a fresh id.
  EXPECT_FALSE(store.RunSummaryById(summaries[0].run_id, &got));
  EXPECT_FALSE(store.RunSummaryById(summaries[1].run_id, &got));
  auto after = store.RunSummaries();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].run_id, summaries[0].run_id);
  EXPECT_NE(after[0].run_id, summaries[1].run_id);
}

TEST(RunSummaryTest, ScanRunByIdResumesFromOffset) {
  LocalStore store;
  store.BulkLoad(MakeBatch("scan", 32));
  auto summaries = store.RunSummaries();
  ASSERT_EQ(summaries.size(), 1u);

  std::vector<std::string> all;
  ASSERT_TRUE(store.ScanRunById(summaries[0].run_id, 0,
                                [&all](const EntryView& e) {
                                  all.emplace_back(e.key.bits());
                                  return true;
                                }));
  ASSERT_EQ(all.size(), 32u);

  std::vector<std::string> tail;
  ASSERT_TRUE(store.ScanRunById(summaries[0].run_id, 30,
                                [&tail](const EntryView& e) {
                                  tail.emplace_back(e.key.bits());
                                  return true;
                                }));
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], all[30]);
  EXPECT_EQ(tail[1], all[31]);

  EXPECT_FALSE(store.ScanRunById(summaries[0].run_id + 999, 0,
                                 [](const EntryView&) { return true; }));
}

// --- Splicing a fetched run (BulkLoad) ------------------------------------

TEST(RepairSpliceTest, BulkLoadOfAFetchedRunIsIdempotent) {
  LocalStore store;
  std::vector<Entry> batch = MakeBatch("splice", 32);
  ASSERT_GT(store.BulkLoad(batch), 0u);

  // Re-splicing identical content changes nothing.
  EXPECT_EQ(store.BulkLoad(batch), 0u);

  // A newer version of one entry changes exactly that slot.
  Entry newer = batch[7];
  newer.version = 9;
  EXPECT_EQ(store.BulkLoad({newer}), 1u);
}

// --- End-to-end repair -----------------------------------------------------

OverlayOptions RepairOptions(uint64_t seed, size_t replication) {
  OverlayOptions options;
  options.seed = seed;
  options.replication = replication;
  return options;
}

// Satellite regression: even for a store far larger than the chunk
// budget, no single repair message may exceed it (the seed shipped the
// whole store in ONE kAntiEntropyReply). The budget bound is asserted on
// per-type max wire bytes across every message of the repair.
TEST(ReplicaRepairTest, ChunkBudgetBoundsEveryMessageAtScale) {
  constexpr size_t kEntries = 1'000'000;
  constexpr size_t kChunkBytes = 256 * 1024;
  OverlayOptions options = RepairOptions(11, 2);
  options.peer.chunk_bytes = kChunkBytes;
  Overlay overlay(options);
  overlay.AddPeers(2);
  overlay.BuildBalanced();

  // Donor holds ~1M entries in immutable runs; the repairer is empty.
  Peer* donor = overlay.peer(0);
  Peer* repairer = overlay.peer(1);
  donor->store().BulkLoad(MakeBatch("big", kEntries));
  ASSERT_EQ(donor->store().total_size(), kEntries);
  ASSERT_EQ(repairer->store().total_size(), 0u);

  const TrafficStats before = overlay.transport().stats();
  ASSERT_TRUE(overlay.PullFromReplicaSync(repairer->id()).ok());
  const TrafficStats delta = overlay.transport().stats().Since(before);

  // Converged byte-identically.
  EXPECT_EQ(repairer->store().total_size(), kEntries);
  EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()));

  // Every chunk respects the budget (+ framing slack: reply fields and
  // the message header are small constants on top of the entry block).
  constexpr uint64_t kFramingSlack = 256;
  auto max_it = delta.per_type_max_bytes.find(MessageType::kRunFetchReply);
  ASSERT_NE(max_it, delta.per_type_max_bytes.end());
  EXPECT_LE(max_it->second, kChunkBytes + kFramingSlack);
  // And the transfer really was chunked, not one oversized message.
  auto count_it = delta.per_type.find(MessageType::kRunFetchReply);
  ASSERT_NE(count_it, delta.per_type.end());
  EXPECT_GT(count_it->second, kEntries * 30 / kChunkBytes / 2)
      << "suspiciously few chunks for ~1M entries";
}

// Satellite regression: the seed gave up after one failed RPC to one
// random replica. Kill the replica the repairer will deterministically
// choose first — predicted by replaying its RNG stream — and the repair
// must fail over and still converge.
TEST(ReplicaRepairTest, FailsOverWhenFirstChosenReplicaIsDead) {
  Overlay overlay(RepairOptions(17, 4));
  overlay.AddPeers(8);
  overlay.BuildBalanced();

  Entry seed_entry = MakeEntry("failover doc", "d", 1);
  auto owners = overlay.ResponsiblePeers(seed_entry.key);
  ASSERT_EQ(owners.size(), 4u);
  const PeerId victim = owners[0];

  // Diverge: the victim misses an update its replica group has.
  ASSERT_TRUE(overlay.InsertSync(victim, seed_entry).ok());
  overlay.scheduler().RunUntilIdle();
  overlay.Crash(victim);
  PeerId helper = 0;
  while (std::find(owners.begin(), owners.end(), helper) != owners.end()) {
    ++helper;
  }
  Entry update = MakeEntry("failover doc", "d", 2);
  ASSERT_TRUE(overlay.InsertSync(helper, update).ok());
  overlay.scheduler().RunUntilIdle();
  overlay.Revive(victim);

  // Predict the deterministic candidate order: PullFromReplica shuffles
  // the replica list with the peer's own RNG stream, so a copy of that
  // RNG replays the exact same shuffle.
  Peer* repairer = overlay.peer(victim);
  std::vector<PeerId> predicted = repairer->routing().replicas();
  ASSERT_EQ(predicted.size(), 3u);
  Rng probe = repairer->rng();
  probe.Shuffle(&predicted);
  overlay.Crash(predicted[0]);

  ASSERT_TRUE(overlay.PullFromReplicaSync(victim).ok());
  EXPECT_GE(repairer->counters().repair_failovers, 1u)
      << "repair did not fail over past the dead first choice";

  auto entries = repairer->store().Get(seed_entry.key);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].version, 2u);
}

TEST(ReplicaRepairTest, AllReplicasDeadSurfacesUnavailable) {
  Overlay overlay(RepairOptions(19, 3));
  overlay.AddPeers(6);
  overlay.BuildBalanced();

  Entry e = MakeEntry("dead group", "d", 1);
  auto owners = overlay.ResponsiblePeers(e.key);
  ASSERT_EQ(owners.size(), 3u);
  for (size_t i = 1; i < owners.size(); ++i) overlay.Crash(owners[i]);

  Status status = overlay.PullFromReplicaSync(owners[0]);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  // Every candidate was tried before giving up.
  EXPECT_EQ(overlay.peer(owners[0])->counters().repair_failovers, 2u);
}

// Below run granularity: a donor whose divergent state is entirely
// memtable-resident still repairs, through the chunked fallback entry
// stream — and the transfer is still bounded per message.
TEST(ReplicaRepairTest, MemtableOnlyDivergenceUsesFallbackStream) {
  OverlayOptions options = RepairOptions(23, 2);
  options.peer.chunk_bytes = 512;  // Force several chunks.
  Overlay overlay(options);
  overlay.AddPeers(2);
  overlay.BuildBalanced();

  Peer* donor = overlay.peer(0);
  Peer* repairer = overlay.peer(1);
  // Default flush threshold is 512: these stay memtable-resident.
  for (const Entry& e : MakeBatch("mem", 100)) donor->store().Apply(e);
  ASSERT_EQ(donor->store().run_count(), 0u);
  ASSERT_EQ(donor->store().memtable_size(), 100u);

  const TrafficStats before = overlay.transport().stats();
  ASSERT_TRUE(overlay.PullFromReplicaSync(repairer->id()).ok());
  const TrafficStats delta = overlay.transport().stats().Since(before);

  EXPECT_EQ(repairer->store().total_size(), 100u);
  EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()));
  EXPECT_EQ(repairer->counters().repair_runs_fetched, 0u);
  EXPECT_GT(repairer->counters().repair_chunks_received, 1u)
      << "fallback stream was not chunked";
  auto max_it = delta.per_type_max_bytes.find(MessageType::kRunFetchReply);
  ASSERT_NE(max_it, delta.per_type_max_bytes.end());
  EXPECT_LE(max_it->second, 512u + 256u);
}

// The manifest delta works: a repairer that already holds most of the
// donor's runs fetches only the missing one, shipping a small fraction
// of the full-state bytes.
TEST(ReplicaRepairTest, DeltaShipsOnlyMissingRuns) {
  Overlay overlay(RepairOptions(29, 2));
  overlay.AddPeers(2);
  overlay.BuildBalanced();

  Peer* donor = overlay.peer(0);
  Peer* repairer = overlay.peer(1);
  // Eight batches land as eight runs on both sides, in three size tiers
  // that size-tiered compaction keeps apart: no tier spans kTierFanin
  // runs, and each run outweighs kTierGrowth times every newer run of a
  // smaller tier. The repairer misses one run of the middle tier.
  const size_t kBatchEntries[] = {1600, 1600, 1600, 100, 100, 100, 8, 8};
  constexpr size_t kMissing = 4;
  for (size_t b = 0; b < 8; ++b) {
    std::vector<Entry> batch =
        MakeBatch("delta-" + std::to_string(b), kBatchEntries[b]);
    donor->store().BulkLoad(batch);
    if (b != kMissing) repairer->store().BulkLoad(batch);
  }
  ASSERT_EQ(donor->store().run_count(), 8u);
  ASSERT_EQ(repairer->store().run_count(), 7u);

  // Full-state baseline: what the seed's single-message pull shipped.
  uint64_t full_state_bytes = 0;
  donor->store().ScanAll([&full_state_bytes](const EntryView& e) {
    full_state_bytes += e.EncodedSize();
    return true;
  });

  const TrafficStats before = overlay.transport().stats();
  ASSERT_TRUE(overlay.PullFromReplicaSync(repairer->id()).ok());
  const TrafficStats delta = overlay.transport().stats().Since(before);

  EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()));
  EXPECT_EQ(repairer->counters().repair_runs_matched, 7u);
  EXPECT_EQ(repairer->counters().repair_runs_fetched, 1u);

  auto bytes_it = delta.per_type_bytes.find(MessageType::kRunFetchReply);
  ASSERT_NE(bytes_it, delta.per_type_bytes.end());
  EXPECT_LT(bytes_it->second, full_state_bytes / 5)
      << "delta repair shipped >= 20% of full state for 1 missing run of 8";
}

// --- Kill-point coverage ---------------------------------------------------

// Kill point 1: donor dies before the manifest reply. With a single
// replica the repair fails cleanly; the repairer's state is untouched.
TEST(RepairKillPointTest, DonorDeadBeforeManifestFailsCleanly) {
  Overlay overlay(RepairOptions(31, 2));
  overlay.AddPeers(2);
  overlay.BuildBalanced();

  Peer* donor = overlay.peer(0);
  Peer* repairer = overlay.peer(1);
  donor->store().BulkLoad(MakeBatch("pre-manifest", 64));
  const uint32_t before_digest = StoreDigest(repairer->store());

  overlay.Crash(donor->id());
  Status status = overlay.PullFromReplicaSync(repairer->id());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(StoreDigest(repairer->store()), before_digest);

  // Recovery: the donor comes back, the next repair round converges.
  overlay.Revive(donor->id());
  ASSERT_TRUE(overlay.PullFromReplicaSync(repairer->id()).ok());
  EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()));
}

// Kill point 2: donor dies mid-transfer, between chunks. The repair
// fails after exhausting chunk retries, but the repairer is never torn:
// only whole, checksum-verified runs were spliced. A later repair
// against the revived donor converges.
TEST(RepairKillPointTest, DonorDeadMidChunkNeverTearsRepairer) {
  // Sweep the kill time across the transfer window so the crash lands
  // before, between, and after individual chunks.
  for (sim::SimTime kill_after_ms : {2, 5, 8, 12, 20}) {
    OverlayOptions options = RepairOptions(37, 2);
    options.peer.chunk_bytes = 512;  // Many chunks per run.
    Overlay overlay(options);
    overlay.AddPeers(2);
    overlay.BuildBalanced();

    Peer* donor = overlay.peer(0);
    Peer* repairer = overlay.peer(1);
    for (int b = 0; b < 3; ++b) {
      donor->store().BulkLoad(MakeBatch("mid-" + std::to_string(b), 100));
    }

    const PeerId donor_id = donor->id();
    overlay.scheduler().ScheduleAfter(
        kill_after_ms * 1000, donor_id,
        [&overlay, donor_id]() { overlay.Crash(donor_id); });

    Status status = overlay.PullFromReplicaSync(repairer->id());
    if (!status.ok()) {
      // Whatever was spliced must be whole runs: every repairer run must
      // have content identical to some donor run (never a torn prefix).
      for (const RunSummary& mine : repairer->store().RunSummaries()) {
        bool matched = false;
        for (const RunSummary& theirs : donor->store().RunSummaries()) {
          if (mine.entry_count == theirs.entry_count &&
              mine.checksum == theirs.checksum) {
            matched = true;
            break;
          }
        }
        EXPECT_TRUE(matched) << "torn run spliced at kill=" << kill_after_ms;
      }
    }

    overlay.Revive(donor_id);
    ASSERT_TRUE(overlay.PullFromReplicaSync(repairer->id()).ok())
        << "kill=" << kill_after_ms;
    EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()))
        << "kill=" << kill_after_ms;
  }
}

// Kill point 3: the REPAIRER crashes mid-splice — injected I/O faults on
// a disk-backed repairer wedge the store while a fetched run is being
// appended. After simulated power loss and reopen, the recovered store
// must be clean (never torn), and a fresh repair must converge.
TEST(RepairKillPointTest, RepairerCrashMidSpliceRecoversAndConverges) {
  // First pass without faults to learn the op count of a full repair,
  // then sweep kill points across it (crash_recovery_test pattern).
  int64_t total_ops = 0;
  for (int64_t fail_after = -1; fail_after == -1 || fail_after < total_ops;
       ++fail_after) {
    MemEnv env;
    OverlayOptions options = RepairOptions(41, 2);
    options.peer.storage.backend = LocalStoreOptions::Backend::kDisk;
    options.peer.storage.data_dir = "db";
    options.peer.storage.env = &env;
    options.peer.chunk_bytes = 1024;

    uint32_t donor_digest = 0;
    {
      Overlay overlay(options);
      overlay.AddPeers(2);
      overlay.BuildBalanced();
      Peer* donor = overlay.peer(0);
      for (int b = 0; b < 3; ++b) {
        donor->store().BulkLoad(MakeBatch("spl-" + std::to_string(b), 60));
      }
      donor_digest = StoreDigest(donor->store());
      const int64_t ops_before_repair = env.mutation_ops();

      if (fail_after >= 0) env.set_fail_after(fail_after);
      Status status = overlay.PullFromReplicaSync(1);
      if (fail_after < 0) {
        ASSERT_TRUE(status.ok()) << status;
        total_ops = env.mutation_ops() - ops_before_repair;
        ASSERT_GT(total_ops, 0) << "splice did no disk writes?";
        continue;
      }
      // With faults the repair may succeed (fault hit nothing critical)
      // or fail (store wedged mid-splice); both must recover below.
      env.set_fail_after(-1);
    }

    // Power loss: unsynced writes vanish; reopen everything.
    env.SimulateCrash();
    Overlay overlay(options);
    overlay.AddPeers(2);
    overlay.BuildBalanced();
    Peer* donor = overlay.peer(0);
    Peer* repairer = overlay.peer(1);
    ASSERT_TRUE(donor->store().io_status().ok())
        << "fail_after=" << fail_after;
    ASSERT_TRUE(repairer->store().io_status().ok())
        << "fail_after=" << fail_after;
    ASSERT_EQ(StoreDigest(donor->store()), donor_digest)
        << "donor lost acknowledged state, fail_after=" << fail_after;

    // Cleanly restartable: a fresh repair converges byte-identically.
    ASSERT_TRUE(overlay.PullFromReplicaSync(1).ok())
        << "fail_after=" << fail_after;
    EXPECT_EQ(StoreDigest(repairer->store()), StoreDigest(donor->store()))
        << "fail_after=" << fail_after;
  }
  // The sweep actually ran (the no-fault pass measured a real op count).
  EXPECT_GT(total_ops, 2);
}

}  // namespace
}  // namespace unistore
}  // namespace pgrid
