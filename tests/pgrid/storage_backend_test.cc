// Disk backend units (run files, block cache, manifest codec) and the
// memory-vs-disk differential: the two engines must produce
// byte-identical scan streams for the same operation history.
#include "pgrid/storage_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pgrid/backend_disk.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"
#include "pgrid/run_merge.h"
#include "pgrid/sorted_run.h"

namespace unistore {
namespace pgrid {
namespace {

using storage::BlockCache;
using storage::DiskRun;
using storage::DiskRunCursor;
using storage::DiskRunWriter;
using storage::MemEnv;
namespace manifest = storage::manifest;

Entry MakeEntry(const std::string& keybits, const std::string& id,
                uint64_t version = 1,
                bool deleted = false) {
  Entry e;
  e.key = Key::FromBits(keybits);
  e.id = id;
  e.version = version;
  e.deleted = deleted;
  return e;
}

std::vector<Entry> SortedEntries(size_t n, const std::string& id_prefix) {
  // Distinct 16-bit keys in increasing order.
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    std::string bits;
    for (int b = 15; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    entries.push_back(MakeEntry(bits, id_prefix + std::to_string(i), i + 1,
                                i % 7 == 0));
  }
  return entries;
}

// Writes `entries` (sorted) as run file `fn` and opens it.
std::shared_ptr<DiskRun> WriteAndOpen(MemEnv* env, const std::string& path,
                                      uint64_t fn, BlockCache* cache,
                                      const std::vector<Entry>& entries,
                                      size_t block_bytes = 256) {
  DiskRunWriter writer(env, path, block_bytes, entries.size());
  for (const Entry& e : entries) writer.Add(EntryView(e));
  EXPECT_TRUE(writer.Finish().ok());
  auto opened = DiskRun::Open(env, path, fn, cache);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return opened.ok() ? opened.value() : nullptr;
}

std::vector<Entry> ScanWhole(const DiskRun* run) {
  std::vector<Entry> out;
  DiskRunCursor cursor;
  cursor.Seek(run, Key());
  while (cursor.valid()) {
    out.push_back(cursor.view().ToEntry());
    cursor.Advance();
  }
  return out;
}

void ExpectSameEntries(const std::vector<Entry>& got,
                       const std::vector<Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key.bits(), want[i].key.bits()) << "entry " << i;
    EXPECT_EQ(got[i].id, want[i].id) << "entry " << i;
    EXPECT_EQ(got[i].version, want[i].version) << "entry " << i;
    EXPECT_EQ(got[i].deleted, want[i].deleted) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Run file format
// ---------------------------------------------------------------------------

TEST(RunFileNameTest, RoundTrip) {
  uint64_t fn = 0;
  EXPECT_TRUE(storage::ParseRunFileName(storage::RunFileName(7), &fn));
  EXPECT_EQ(fn, 7u);
  EXPECT_FALSE(storage::ParseRunFileName("MANIFEST", &fn));
  EXPECT_FALSE(storage::ParseRunFileName("run-", &fn));
  EXPECT_FALSE(storage::ParseRunFileName("run-12x", &fn));
}

TEST(DiskRunTest, WriteScanRoundTrip) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(500, "id");
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->entry_count(), entries.size());
  EXPECT_GT(run->block_count(), 1u);  // 256-byte blocks force several.
  ExpectSameEntries(ScanWhole(run.get()), entries);
  EXPECT_TRUE(run->status().ok());
}

TEST(DiskRunTest, SeekPositionsMidRun) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(300, "id");
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries);
  ASSERT_NE(run, nullptr);
  // Seek to each entry's exact key: cursor must land on it.
  for (size_t i = 0; i < entries.size(); i += 37) {
    DiskRunCursor cursor;
    cursor.Seek(run.get(), entries[i].key);
    ASSERT_TRUE(cursor.valid()) << i;
    EXPECT_EQ(cursor.view().key, entries[i].key) << i;
  }
  // Past the last key: invalid.
  DiskRunCursor cursor;
  cursor.Seek(run.get(), Key::FromBits(std::string(17, '1')));
  EXPECT_FALSE(cursor.valid());
}

TEST(DiskRunTest, FindSlotMatchesEntries) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(200, "id");
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries);
  ASSERT_NE(run, nullptr);
  uint64_t version = 0;
  bool deleted = false;
  for (size_t i = 0; i < entries.size(); i += 11) {
    ASSERT_TRUE(run->FindSlot({entries[i].key, entries[i].id}, &version,
                              &deleted));
    EXPECT_EQ(version, entries[i].version);
    EXPECT_EQ(deleted, entries[i].deleted);
  }
  EXPECT_FALSE(run->FindSlot({entries[0].key, "no-such-id"}, &version,
                             &deleted));
}

TEST(DiskRunTest, OverlongKeysRoundTrip) {
  // The longest keys, kKeyBits wide and sharing 123 bits, round-trip
  // through prefix-shared records; a record claiming a key longer than
  // kKeyBits fails block validation.
  MemEnv env;
  BlockCache cache(1 << 20);
  std::vector<Entry> entries;
  const std::string base(kKeyBits - 5, '0');
  for (int i = 0; i < 20; ++i) {
    std::string bits = base;
    for (int b = 4; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "t", i + 1));
  }
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries,
                          /*block_bytes=*/128);
  ASSERT_NE(run, nullptr);
  EXPECT_GT(run->block_count(), 1u);
  ExpectSameEntries(ScanWhole(run.get()), entries);
  uint64_t version = 0;
  bool deleted = false;
  ASSERT_TRUE(run->FindSlot({entries[7].key, "t"}, &version, &deleted));
  EXPECT_EQ(version, 8u);

  std::string record;
  record.push_back('\0');    // shared = 0
  record.push_back('\x81');  // key_bit_len = 129 (varint)
  record.push_back('\x01');
  record.append(17, '\0');   // 17 key bytes
  record.append("\x01t\x01\x00", 4);  // id "t", version 1, flags 0
  EXPECT_EQ(storage::ValidateBlockPayload(record).code(),
            StatusCode::kCorruption);
}

TEST(DiskRunTest, CorruptBlockWedgesRun) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(300, "id");
  {
    DiskRunWriter writer(&env, "run-1", 256, entries.size());
    for (const Entry& e : entries) writer.Add(EntryView(e));
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Flip one byte inside the first block's payload (after the 8-byte file
  // header and the 8-byte block frame header).
  {
    auto reader = env.NewRandomAccessFile("run-1");
    ASSERT_TRUE(reader.ok());
    std::string all;
    ASSERT_TRUE(reader.value()->Read(0, 1 << 20, &all).ok());
    all[20] = static_cast<char>(all[20] ^ 0x40);
    auto writable = env.NewWritableFile("run-1", /*truncate=*/true);
    ASSERT_TRUE(writable.ok());
    ASSERT_TRUE(writable.value()->Append(all).ok());
    ASSERT_TRUE(writable.value()->Sync().ok());
  }
  auto opened = DiskRun::Open(&env, "run-1", 1, &cache);
  ASSERT_TRUE(opened.ok());  // Footer is intact; blocks verify lazily.
  auto run = opened.value();
  DiskRunCursor cursor;
  cursor.Seek(run.get(), Key());
  EXPECT_FALSE(cursor.valid());  // First block fails its checksum.
  EXPECT_FALSE(run->status().ok());
}

TEST(DiskRunTest, TruncatedFooterFailsOpen) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(100, "id");
  {
    DiskRunWriter writer(&env, "run-1", 256, entries.size());
    for (const Entry& e : entries) writer.Add(EntryView(e));
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = env.NewRandomAccessFile("run-1");
  ASSERT_TRUE(reader.ok());
  std::string all;
  ASSERT_TRUE(reader.value()->Read(0, 1 << 20, &all).ok());
  all.resize(all.size() - 7);  // Lose most of the fixed tail.
  auto writable = env.NewWritableFile("run-1", /*truncate=*/true);
  ASSERT_TRUE(writable.ok());
  ASSERT_TRUE(writable.value()->Append(all).ok());
  EXPECT_FALSE(DiskRun::Open(&env, "run-1", 1, &cache).ok());
}

TEST(ValidateBlockPayloadTest, RejectsGarbage) {
  EXPECT_FALSE(storage::ValidateBlockPayload("").ok());
  EXPECT_FALSE(storage::ValidateBlockPayload("\x05garbage").ok());
  // First record must start a prefix chain (shared == 0).
  std::string bad;
  bad.push_back('\x01');  // shared = 1 on the first record.
  EXPECT_FALSE(storage::ValidateBlockPayload(bad).ok());
  // A 4-bit key "1010" with padding bits set, then id "t", version 1.
  const std::string good("\x00\x04\xA0\x01t\x01\x00", 7);
  EXPECT_TRUE(storage::ValidateBlockPayload(good).ok());
  std::string padded = good;
  padded[2] = '\xA1';
  EXPECT_FALSE(storage::ValidateBlockPayload(padded).ok());
  // A second record may not share more whole bytes than it has: a 4-bit
  // key holds none.
  const std::string overshared("\x01\x04\x01t\x01\x00", 6);
  EXPECT_FALSE(storage::ValidateBlockPayload(good + overshared).ok());
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(/*capacity_bytes=*/200);
  auto block = [](size_t n) {
    return std::make_shared<const std::string>(std::string(n, 'x'));
  };
  cache.Insert(1, 0, block(90));
  cache.Insert(1, 1, block(90));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);  // Touch: 0 newer than 1.
  cache.Insert(1, 2, block(90));           // Evicts (1,1).
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_LE(cache.charge(), 200u);
}

TEST(BlockCacheTest, PinnedBlockSurvivesEviction) {
  BlockCache cache(/*capacity_bytes=*/100);
  auto pinned = std::make_shared<const std::string>(std::string(80, 'x'));
  cache.Insert(1, 0, pinned);
  cache.Insert(1, 1, std::make_shared<const std::string>(
                         std::string(80, 'y')));  // Evicts (1,0).
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  // The pin keeps the bytes alive regardless of cache residency.
  EXPECT_EQ(pinned->size(), 80u);
}

TEST(BlockCacheTest, CountsHitsAndMisses) {
  BlockCache cache(1 << 10);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, std::make_shared<const std::string>("abc"));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Manifest codec
// ---------------------------------------------------------------------------

TEST(ManifestCodecTest, RoundTripsAllRecordTypes) {
  manifest::Record snapshot;
  snapshot.type = manifest::kSnapshot;
  snapshot.next_file_number = 42;
  snapshot.runs = {3, 7, 9};
  manifest::Record add;
  add.type = manifest::kAddRun;
  add.file_number = 9;
  add.origin = 1;
  manifest::Record replace;
  replace.type = manifest::kReplace;
  replace.first = 1;
  replace.removed = 2;
  replace.file_number = 10;

  std::string stream = manifest::EncodeFramed(snapshot) +
                       manifest::EncodeFramed(add) +
                       manifest::EncodeFramed(replace);
  size_t pos = 0;
  auto r1 = manifest::DecodeFramedAt(stream, &pos);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().type, manifest::kSnapshot);
  EXPECT_EQ(r1.value().next_file_number, 42u);
  EXPECT_EQ(r1.value().runs, (std::vector<uint64_t>{3, 7, 9}));
  auto r2 = manifest::DecodeFramedAt(stream, &pos);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().type, manifest::kAddRun);
  EXPECT_EQ(r2.value().file_number, 9u);
  EXPECT_EQ(r2.value().origin, 1);
  auto r3 = manifest::DecodeFramedAt(stream, &pos);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().first, 1u);
  EXPECT_EQ(r3.value().removed, 2u);
  EXPECT_EQ(r3.value().file_number, 10u);
  // Clean end-of-stream.
  auto end = manifest::DecodeFramedAt(stream, &pos);
  EXPECT_EQ(end.status().code(), StatusCode::kNotFound);
}

TEST(ManifestCodecTest, TornAndCorruptFramesAreCorruption) {
  manifest::Record add;
  add.type = manifest::kAddRun;
  add.file_number = 5;
  const std::string frame = manifest::EncodeFramed(add);

  // Torn: any strict prefix fails as Corruption, not NotFound.
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    size_t pos = 0;
    auto r = manifest::DecodeFramedAt(frame.substr(0, cut), &pos);
    ASSERT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << cut;
  }
  // Bit flip anywhere: Corruption.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string damaged = frame;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    size_t pos = 0;
    auto r = manifest::DecodeFramedAt(damaged, &pos);
    // A flip in the length prefix may make the frame look torn; either
    // way it must surface as Corruption.
    ASSERT_FALSE(r.ok()) << i;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << i;
  }
}

// ---------------------------------------------------------------------------
// Slot probes on a key shared by many ids
// ---------------------------------------------------------------------------

using Slot = std::pair<std::string, std::string>;  // (key bits, id)
using SlotReference = std::map<Slot, Entry>;

std::string Bits16(size_t v) {
  std::string bits;
  for (int b = 15; b >= 0; --b) bits += ((v >> b) & 1) ? '1' : '0';
  return bits;
}

// Ids sort by their number: s00000 < s00001 < ... < s99999.
std::string SharedId(size_t n) {
  std::string digits = std::to_string(n);
  return "s" + std::string(5 - digits.size(), '0') + digits;
}

constexpr size_t kDistinctKeys = 100;
constexpr size_t kSharedKeyIndex = 50;
constexpr size_t kSharedIds = 2000;

// Keys Bits16(2), Bits16(4), ..., Bits16(2 * kDistinctKeys) hold one id
// "m" each, except key kSharedKeyIndex, which holds the odd ids
// SharedId(1), SharedId(3), ... — kSharedIds of them. Entries in slot
// order.
std::vector<Entry> SharedKeyEntries() {
  std::vector<Entry> entries;
  for (size_t k = 1; k <= kDistinctKeys; ++k) {
    const std::string bits = Bits16(2 * k);
    if (k != kSharedKeyIndex) {
      entries.push_back(MakeEntry(bits, "m", k));
      continue;
    }
    for (size_t j = 0; j < kSharedIds; ++j) {
      entries.push_back(MakeEntry(bits, SharedId(2 * j + 1), 3 * j + 1,
                                  j % 5 == 0));
    }
  }
  return entries;
}

// Every present slot, plus absent ids before, between and after each
// key's ids and absent keys before, between and after the run's keys; in
// slot order.
std::vector<Slot> SharedKeyProbes() {
  std::set<Slot> probes;
  for (const Entry& e : SharedKeyEntries()) {
    probes.emplace(e.key.bits(), e.id);
    probes.emplace(e.key.bits(), "a");
    probes.emplace(e.key.bits(), "z");
  }
  const std::string shared = Bits16(2 * kSharedKeyIndex);
  for (size_t j = 0; j <= kSharedIds; ++j) {
    probes.emplace(shared, SharedId(2 * j));
  }
  for (size_t k = 0; k <= kDistinctKeys; ++k) {
    probes.emplace(Bits16(2 * k + 1), "m");
    probes.emplace(Bits16(2 * k + 1), SharedId(1));
  }
  probes.emplace(Bits16(0), "m");
  return std::vector<Slot>(probes.begin(), probes.end());
}

SlotReference ReferenceOf(const std::vector<Entry>& entries) {
  SlotReference reference;
  for (const Entry& e : entries) reference[{e.key.bits(), e.id}] = e;
  return reference;
}

// One probe's answer against the reference: found exactly when the slot
// is present, with its version and tombstone flag.
void ExpectProbeMatches(const SlotReference& reference, const Slot& probe,
                        bool found, uint64_t version, bool deleted,
                        const std::string& what) {
  const auto it = reference.find(probe);
  ASSERT_EQ(found, it != reference.end())
      << what << ": " << probe.first << " / " << probe.second;
  if (!found) return;
  EXPECT_EQ(version, it->second.version) << what << ": " << probe.second;
  EXPECT_EQ(deleted, it->second.deleted) << what << ": " << probe.second;
}

TEST(SharedKeyProbeTest, SortedRunFindSlotMatchesReference) {
  const std::vector<Entry> entries = SharedKeyEntries();
  const SlotReference reference = ReferenceOf(entries);
  const std::vector<Slot> probes = SharedKeyProbes();
  for (size_t interval : {1u, 2u, 16u}) {
    SCOPED_TRACE("restart_interval " + std::to_string(interval));
    const SortedRun run = SortedRun::Build(EntryRunInput(entries), interval);
    ASSERT_EQ(run.size(), entries.size());
    for (const Slot& probe : probes) {
      uint64_t version = 0;
      bool deleted = false;
      const bool found =
          run.FindSlot({Key::FromBits(probe.first), probe.second}, &version,
                       &deleted);
      ExpectProbeMatches(reference, probe, found, version, deleted,
                         "FindSlot");
    }
  }
}

TEST(SharedKeyProbeTest, DiskRunFindSlotMatchesReference) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SharedKeyEntries();
  const SlotReference reference = ReferenceOf(entries);
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries);
  ASSERT_NE(run, nullptr);
  ASSERT_GT(run->block_count(), 64u);  // The shared key spans many blocks.
  for (const Slot& probe : SharedKeyProbes()) {
    uint64_t version = 0;
    bool deleted = false;
    const bool found =
        run->FindSlot({Key::FromBits(probe.first), probe.second}, &version,
                      &deleted);
    ExpectProbeMatches(reference, probe, found, version, deleted,
                       "DiskRun::FindSlot");
  }
  EXPECT_TRUE(run->status().ok());
}

TEST(SharedKeyProbeTest, DiskRunProbeLoadsLogarithmicBlocks) {
  MemEnv env;
  BlockCache warm(1 << 20);
  const std::vector<Entry> entries = SharedKeyEntries();
  ASSERT_NE(WriteAndOpen(&env, "run-1", 1, &warm, entries), nullptr);

  // Finding the shared key's last id looks up the blocks of one binary
  // search plus the target block, not every block of the key.
  BlockCache cold(1 << 20);
  auto opened = DiskRun::Open(&env, "run-1", 1, &cold);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const std::shared_ptr<DiskRun> run = opened.value();
  const size_t blocks = run->block_count();
  ASSERT_GT(blocks, 64u);
  size_t log2_blocks = 0;
  while ((size_t{1} << log2_blocks) < blocks) ++log2_blocks;

  const uint64_t loads_before = cold.hits() + cold.misses();
  uint64_t version = 0;
  bool deleted = false;
  ASSERT_TRUE(run->FindSlot({Key::FromBits(Bits16(2 * kSharedKeyIndex)),
                             SharedId(2 * kSharedIds - 1)},
                            &version, &deleted));
  EXPECT_EQ(version, 3 * (kSharedIds - 1) + 1);
  EXPECT_LE(cold.hits() + cold.misses() - loads_before, log2_blocks + 2)
      << blocks << " blocks";
}

// ---------------------------------------------------------------------------
// MergeCursorStreams on both backends' cursors
// ---------------------------------------------------------------------------

using RunList = std::vector<std::vector<Entry>>;  // Oldest run first.

Entry Bits16Entry(size_t i, const std::string& id, uint64_t version,
                  bool deleted = false) {
  std::string bits;
  for (int b = 15; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
  return MakeEntry(bits, id, version, deleted);
}

// The full-scan merge: every run's entries, a newer run's occurrence
// replacing an older one, in slot order.
std::vector<Entry> FullScanMerge(const RunList& runs) {
  std::map<std::pair<Key, std::string>, Entry> slots;
  for (const std::vector<Entry>& run : runs) {
    for (const Entry& e : run) slots[{e.key, e.id}] = e;
  }
  std::vector<Entry> out;
  for (const auto& [slot, e] : slots) out.push_back(e);
  return out;
}

// An empty run stands for a cursor that is not positioned (invalid from
// the start); every other cursor starts at its run's first entry.
std::vector<Entry> MergeMemoryCursors(const RunList& runs) {
  std::vector<SortedRun> built;
  for (const std::vector<Entry>& run : runs) {
    built.push_back(SortedRun::Build(EntryRunInput(run)));
  }
  SortedRun::Cursor cursors[16];
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) cursors[i].Seek(&built[i], Key());
  }
  std::vector<Entry> out;
  MergeCursorStreams(cursors, runs.size(), [&out](const EntryView& v) {
    out.push_back(v.ToEntry());
  });
  return out;
}

std::vector<Entry> MergeDiskCursors(const RunList& runs) {
  MemEnv env;
  BlockCache cache(1 << 20);
  std::vector<std::shared_ptr<DiskRun>> opened(runs.size());
  DiskRunCursor cursors[16];
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].empty()) continue;
    opened[i] = WriteAndOpen(&env, "run-" + std::to_string(i), i + 1, &cache,
                             runs[i], /*block_bytes=*/128);
    cursors[i].Seek(opened[i].get(), Key());
  }
  std::vector<Entry> out;
  MergeCursorStreams(cursors, runs.size(), [&out](const EntryView& v) {
    out.push_back(v.ToEntry());
  });
  return out;
}

void ExpectMergesMatchFullScan(const RunList& runs) {
  const std::vector<Entry> expected = FullScanMerge(runs);
  EXPECT_EQ(MergeMemoryCursors(runs), expected) << "memory cursors";
  EXPECT_EQ(MergeDiskCursors(runs), expected) << "disk cursors";
}

TEST(RunMergeTest, SlotTiedAcrossFourRunsKeepsTheNewest) {
  // Slot (key 100, "s") in all four runs, each newer run a newer version;
  // the older occurrences advance with the winner, and a second tie
  // across three runs follows at once.
  RunList runs(4);
  for (size_t r = 0; r < 4; ++r) {
    runs[r].push_back(Bits16Entry(10 * r, "before", 1));
    runs[r].push_back(Bits16Entry(100, "s", r + 1, r == 2));
    if (r > 0) runs[r].push_back(Bits16Entry(100, "t", 10 + r));
    runs[r].push_back(Bits16Entry(200 + r, "after", 1));
  }
  ExpectMergesMatchFullScan(runs);
  const std::vector<Entry> merged = MergeMemoryCursors(runs);
  ASSERT_EQ(merged.size(), 10u);
  EXPECT_EQ(merged[4], Bits16Entry(100, "s", 4));
  EXPECT_EQ(merged[5], Bits16Entry(100, "t", 13));
}

TEST(RunMergeTest, DominantRunStreaksAroundSmallRuns) {
  // One run of 3000 slots and three of four: long streaks of the large
  // run, broken where a small run's slot falls between or onto its own.
  RunList runs(4);
  for (size_t i = 0; i < 3000; ++i) {
    runs[0].push_back(Bits16Entry(3 * i, "big", 1, i % 11 == 0));
  }
  for (size_t r = 1; r < 4; ++r) {
    for (size_t k = 0; k < 4; ++k) {
      const size_t at = 700 * k + 97 * r;
      // Onto a slot of the large run (an update) and between two of its
      // slots.
      runs[r].push_back(Bits16Entry(3 * at, "big", 1 + r));
      runs[r].push_back(Bits16Entry(3 * at + 1, "small", r));
    }
  }
  ExpectMergesMatchFullScan(runs);
  EXPECT_EQ(MergeMemoryCursors(runs).size(), 3000u + 12u);
}

TEST(RunMergeTest, EmptyAndExhaustedCursors) {
  // Unpositioned cursors, a cursor exhausted after its first entry, and
  // one that only starts after every other is exhausted.
  RunList runs(6);
  runs[1].push_back(Bits16Entry(0, "first", 1));
  for (size_t i = 1; i < 50; ++i) runs[2].push_back(Bits16Entry(i, "mid", 1));
  runs[4].push_back(Bits16Entry(1000, "last", 1));
  ExpectMergesMatchFullScan(runs);
  EXPECT_EQ(MergeMemoryCursors(runs).size(), 51u);
  EXPECT_TRUE(MergeMemoryCursors(RunList(3)).empty());
  EXPECT_TRUE(MergeDiskCursors(RunList(3)).empty());
  // A single cursor streams on its own.
  ExpectMergesMatchFullScan(RunList{runs[2]});
}

TEST(RunMergeTest, RandomRunsMatchFullScanMerge) {
  Rng rng(4040);
  for (int round = 0; round < 30; ++round) {
    RunList runs(1 + rng.NextBounded(8));
    for (std::vector<Entry>& run : runs) {
      // A few large runs among small and empty ones, over a key space
      // small enough that slots tie across runs.
      const size_t n = rng.NextBounded(4) == 0 ? 200 + rng.NextBounded(300)
                                               : rng.NextBounded(6);
      std::map<std::pair<size_t, std::string>, Entry> slots;
      for (size_t i = 0; i < n; ++i) {
        const size_t key = rng.NextBounded(400);
        const std::string id = "id" + std::to_string(rng.NextBounded(3));
        slots[{key, id}] = Bits16Entry(key, id, 1 + rng.NextBounded(9),
                                       rng.NextBounded(6) == 0);
      }
      for (const auto& [slot, e] : slots) run.push_back(e);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectMergesMatchFullScan(runs);
  }
}

// ---------------------------------------------------------------------------
// DiskBackend end-to-end through LocalStore
// ---------------------------------------------------------------------------

LocalStoreOptions DiskOptions(storage::MemEnv* env, const std::string& dir,
                              size_t flush_threshold = 16) {
  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  o.data_dir = dir;
  o.env = env;
  o.memtable_flush_threshold = flush_threshold;
  o.block_bytes = 256;
  return o;
}

std::vector<Entry> RandomWorkload(LocalStore* store, uint64_t seed) {
  // Mixed Apply / BulkLoad / tombstone / Flush / Compact workload; returns
  // nothing, the store is the artifact. Deterministic per seed.
  Rng rng(seed);
  std::vector<Entry> batch;
  for (int op = 0; op < 600; ++op) {
    std::string bits;
    for (int b = 0; b < 10; ++b) bits += rng.NextBounded(2) ? '1' : '0';
    Entry e = MakeEntry(bits, "id" + std::to_string(rng.NextBounded(6)),
                        1 + rng.NextBounded(9), rng.NextBounded(5) == 0);
    if (rng.NextBounded(3) == 0) {
      batch.push_back(e);
      if (batch.size() >= 40) {
        store->BulkLoad(std::move(batch));
        batch.clear();
      }
    } else {
      store->Apply(e);
    }
    if (op % 151 == 150) store->Flush();
    if (op % 401 == 400) store->Compact();
  }
  if (!batch.empty()) store->BulkLoad(std::move(batch));
  return store->GetAll();
}

TEST(DiskBackendTest, MatchesMemoryBackendScanStream) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    LocalStoreOptions mem_options;
    mem_options.memtable_flush_threshold = 16;
    LocalStore mem_store(mem_options);

    MemEnv env;
    LocalStore disk_store(DiskOptions(&env, "db"));

    const std::vector<Entry> mem_all = RandomWorkload(&mem_store, seed);
    const std::vector<Entry> disk_all = RandomWorkload(&disk_store, seed);
    ASSERT_TRUE(disk_store.io_status().ok())
        << disk_store.io_status().message();
    ExpectSameEntries(disk_all, mem_all);
    EXPECT_EQ(disk_store.live_size(), mem_store.live_size());
    EXPECT_EQ(disk_store.total_size(), mem_store.total_size());
  }
}

TEST(DiskBackendTest, OverlongAndShortKeysMatchMemoryBackend) {
  // Both engines write the same record codec: keys of up to kKeyBits
  // bits sharing 120+ bits share whole bytes with their predecessor,
  // whatever their lengths.
  const std::string zeros(kKeyBits, '0');
  Rng rng(20261017);
  std::vector<Entry> entries;
  for (int i = 0; i < 200; ++i) {
    std::string bits = zeros.substr(0, 120 + rng.NextBounded(8));
    bits += rng.NextBounded(2) ? '1' : '0';
    entries.push_back(MakeEntry(bits,
                                "id" + std::to_string(rng.NextBounded(4)),
                                1 + rng.NextBounded(5),
                                rng.NextBounded(6) == 0));
  }
  // Flushed memory runs span several restart blocks.
  LocalStoreOptions mem_options;
  mem_options.memtable_flush_threshold = 4 * SortedRun::kRestartInterval;
  LocalStore mem_store(mem_options);
  MemEnv env;
  LocalStore disk_store(DiskOptions(&env, "db"));
  for (LocalStore* store : {&mem_store, &disk_store}) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i % 5 == 0) {
        store->BulkLoad({entries[i]});
      } else {
        store->Apply(entries[i]);
      }
    }
    store->Flush();
  }
  ASSERT_TRUE(disk_store.io_status().ok()) << disk_store.io_status().message();
  size_t full_width = 0;
  for (const Entry& e : mem_store.GetAll()) {
    if (e.key.size() == kKeyBits) ++full_width;
  }
  EXPECT_GT(full_width, 0u);
  ExpectSameEntries(disk_store.GetAll(), mem_store.GetAll());
  mem_store.Compact();
  disk_store.Compact();
  ExpectSameEntries(disk_store.GetAll(), mem_store.GetAll());
}

// Upserts on one key shared by ~2,000 ids whose slots sit in the
// memtable and in several runs: every write probes the shared key through
// FindSlot, from Apply and from BulkLoad alike.
TEST(SharedKeyProbeTest, LocalStoreUpsertsMatchReferenceOnBothBackends) {
  for (const bool disk : {false, true}) {
    SCOPED_TRACE(disk ? "disk backend" : "memory backend");
    MemEnv env;
    LocalStoreOptions options;
    if (disk) options = DiskOptions(&env, "db");
    options.memtable_flush_threshold = 1024;
    LocalStore store(options);
    const std::string shared = Bits16(2 * kSharedKeyIndex);
    SlotReference reference;
    // Versioned upsert: only a newer version changes a slot.
    auto upsert = [&reference](const Entry& e) {
      auto it = reference.find({e.key.bits(), e.id});
      if (it != reference.end() && it->second.version >= e.version) {
        return false;
      }
      reference[{e.key.bits(), e.id}] = e;
      return true;
    };

    // Ids 4i + r for r = 0, 1, 2 each arrive as one BulkLoad run; r = 3
    // goes through Apply into the memtable. Distinct keys bracket the
    // shared one in every run.
    for (size_t r = 0; r < 4; ++r) {
      const std::string tag = std::to_string(r);
      std::vector<Entry> batch;
      batch.push_back(
          MakeEntry(Bits16(2 * kSharedKeyIndex - 2), "m" + tag, 1));
      for (size_t i = 0; i < 500; ++i) {
        batch.push_back(MakeEntry(shared, SharedId(4 * i + r), 10));
      }
      batch.push_back(
          MakeEntry(Bits16(2 * kSharedKeyIndex + 2), "m" + tag, 1));
      for (const Entry& e : batch) upsert(e);
      if (r < 3) {
        EXPECT_EQ(store.BulkLoad(batch), batch.size());
      } else {
        for (const Entry& e : batch) EXPECT_TRUE(store.Apply(e));
      }
    }
    ASSERT_GE(store.run_count(), 3u);
    ASSERT_EQ(store.memtable_size(), 502u);

    // Every seventh id, so ids from every run and the memtable, plus one
    // id the store does not hold.
    std::vector<size_t> touched;
    for (size_t n = 0; n < 2000; n += 7) touched.push_back(n);
    touched.push_back(2001);

    // An older version is rejected by both write paths.
    std::vector<Entry> stale;
    for (size_t n : touched) {
      if (n >= 2000) continue;
      stale.push_back(MakeEntry(shared, SharedId(n), 9));
      EXPECT_FALSE(store.Apply(stale.back())) << n;
    }
    std::vector<Entry> changed;
    EXPECT_EQ(store.BulkLoad(stale, &changed), 0u);
    EXPECT_TRUE(changed.empty());

    // A newer version is applied once and reported in `changed`.
    std::vector<Entry> newer;
    for (size_t n : touched) {
      newer.push_back(MakeEntry(shared, SharedId(n), 11));
    }
    for (const Entry& e : newer) upsert(e);
    EXPECT_EQ(store.BulkLoad(newer, &changed), newer.size());
    ASSERT_EQ(changed.size(), newer.size());
    std::set<std::string> changed_ids;
    for (const Entry& e : changed) {
      EXPECT_EQ(e.version, 11u);
      changed_ids.insert(e.id);
    }
    EXPECT_EQ(changed_ids.size(), newer.size());
    changed.clear();
    EXPECT_EQ(store.BulkLoad(newer, &changed), 0u);
    EXPECT_TRUE(changed.empty());
    for (const Entry& e : newer) EXPECT_FALSE(store.Apply(e));

    // A tombstone hides its slot; an older write cannot revive it.
    for (size_t n = 3; n < 2000; n += 11) {
      const Entry tombstone = MakeEntry(shared, SharedId(n), 12, true);
      EXPECT_EQ(store.Apply(tombstone), upsert(tombstone)) << n;
      EXPECT_FALSE(store.Apply(MakeEntry(shared, SharedId(n), 11)));
    }

    ASSERT_TRUE(store.io_status().ok()) << store.io_status().message();
    size_t live = 0;
    std::vector<Entry> want_shared;
    for (const auto& [slot, e] : reference) {
      if (e.deleted) continue;
      ++live;
      if (slot.first == shared) want_shared.push_back(e);
    }
    EXPECT_EQ(store.total_size(), reference.size());
    EXPECT_EQ(store.live_size(), live);
    ExpectSameEntries(store.Get(Key::FromBits(shared)), want_shared);
  }
}

TEST(DiskBackendTest, ReopenRecoversEverything) {
  MemEnv env;
  std::vector<Entry> before;
  size_t live = 0;
  size_t total = 0;
  {
    LocalStore store(DiskOptions(&env, "db"));
    before = RandomWorkload(&store, 99);
    store.Flush();  // Persist the memtable tail.
    before = store.GetAll();
    live = store.live_size();
    total = store.total_size();
    ASSERT_TRUE(store.io_status().ok());
  }
  LocalStore reopened(DiskOptions(&env, "db"));
  ASSERT_TRUE(reopened.io_status().ok()) << reopened.io_status().message();
  ExpectSameEntries(reopened.GetAll(), before);
  EXPECT_EQ(reopened.live_size(), live);
  EXPECT_EQ(reopened.total_size(), total);
}

TEST(DiskBackendTest, RecoveryDeletesOrphanRunFiles) {
  MemEnv env;
  {
    LocalStore store(DiskOptions(&env, "db"));
    for (int i = 0; i < 64; ++i) {
      store.Apply(MakeEntry("01" + std::to_string(i % 2),
                            "t" + std::to_string(i), i + 1));
    }
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
  }
  // A run file that never made it into the manifest (crash between run
  // sync and manifest append).
  {
    auto orphan = env.NewWritableFile("db/run-9999", /*truncate=*/true);
    ASSERT_TRUE(orphan.ok());
    ASSERT_TRUE(orphan.value()->Append("orphan bytes").ok());
    ASSERT_TRUE(orphan.value()->Sync().ok());
  }
  LocalStore reopened(DiskOptions(&env, "db"));
  ASSERT_TRUE(reopened.io_status().ok());
  EXPECT_FALSE(env.FileExists("db/run-9999"));
}

TEST(DiskBackendTest, WriteFailureWedgesStore) {
  MemEnv env;
  LocalStore store(DiskOptions(&env, "db", /*flush_threshold=*/4));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Apply(MakeEntry("0101", "t" + std::to_string(i))));
  }
  env.set_fail_after(0);  // Every subsequent Env mutation fails.
  store.Apply(MakeEntry("0101", "t3"));  // Triggers a failing flush.
  EXPECT_FALSE(store.io_status().ok());
  // Wedged: mutations no-op, reads still serve.
  EXPECT_FALSE(store.Apply(MakeEntry("0110", "t9")));
  EXPECT_EQ(store.BulkLoad({MakeEntry("0111", "t8")}), 0u);
  env.set_fail_after(-1);
  EXPECT_FALSE(store.io_status().ok());  // Wedge is sticky.
}

TEST(DiskBackendTest, MissingDataDirFallsBackToMemory) {
  // Sanitized() downgrades kDisk with an empty data_dir to kMemory with a
  // warning instead of wedging.
  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  std::vector<std::string> warnings;
  const LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_EQ(s.backend, LocalStoreOptions::Backend::kMemory);
  ASSERT_EQ(warnings.size(), 1u);

  LocalStore store(o);  // Construction applies the same fallback.
  EXPECT_TRUE(store.io_status().ok());
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1")));
}

TEST(DiskBackendTest, PosixEnvEndToEnd) {
  // The one case against the real filesystem (everything else runs on
  // MemEnv): write through flushes, close, recover from actual files.
  // Respects TMPDIR so sandboxed CI runs stay inside their scratch space.
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/unistore-posix-env-test-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr) << "mkdtemp failed";

  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  o.data_dir = dir + "/db";
  o.memtable_flush_threshold = 8;
  o.block_bytes = 256;
  std::vector<Entry> fed;
  {
    LocalStore store(o);
    ASSERT_TRUE(store.io_status().ok());
    for (int i = 0; i < 40; ++i) {
      std::string bits;
      for (int b = 5; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
      store.Apply(MakeEntry(bits, "id"));
    }
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
    fed = store.GetAll();
  }
  {
    LocalStore recovered(o);
    ASSERT_TRUE(recovered.io_status().ok());
    EXPECT_EQ(recovered.GetAll(), fed);
  }
  // Best-effort scratch cleanup via the same Env the backend used.
  storage::Env* env = storage::Env::Default();
  auto listing = env->ListDir(o.data_dir);
  if (listing.ok()) {
    for (const std::string& name : listing.value()) {
      (void)env->DeleteFile(o.data_dir + "/" + name);
    }
  }
  ::rmdir(o.data_dir.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
