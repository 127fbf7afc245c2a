// Disk backend units (run files, block cache, manifest codec) and the
// memory-vs-disk differential: the two engines must produce
// byte-identical scan streams for the same operation history.
#include "pgrid/storage_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pgrid/backend_disk.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"
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
                const std::string& payload, uint64_t version = 1,
                bool deleted = false) {
  Entry e;
  e.key = Key::FromBits(keybits);
  e.id = id;
  e.payload = payload;
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
    entries.push_back(MakeEntry(bits, id_prefix + std::to_string(i),
                                "payload-" + std::to_string(i), i + 1,
                                i % 7 == 0));
  }
  return entries;
}

// Writes `entries` (sorted) as run file `fn` and opens it.
std::shared_ptr<DiskRun> WriteAndOpen(MemEnv* env, const std::string& path,
                                      uint64_t fn, BlockCache* cache,
                                      const std::vector<Entry>& entries,
                                      size_t block_bytes = 256) {
  DiskRunWriter writer(env, path, block_bytes);
  for (const Entry& e : entries) writer.Add(EntryView(e));
  EXPECT_TRUE(writer.Finish().ok());
  auto opened = DiskRun::Open(env, path, fn, cache);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return opened.ok() ? opened.value() : nullptr;
}

std::vector<Entry> ScanWhole(const DiskRun* run) {
  std::vector<Entry> out;
  DiskRunCursor cursor;
  cursor.Seek(run, "");
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
    EXPECT_EQ(got[i].payload, want[i].payload) << "entry " << i;
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
    cursor.Seek(run.get(), entries[i].key.bits());
    ASSERT_TRUE(cursor.valid()) << i;
    EXPECT_EQ(cursor.view().key_bits, entries[i].key.bits()) << i;
  }
  // Past the last key: invalid.
  DiskRunCursor cursor;
  cursor.Seek(run.get(), std::string(17, '1'));
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
    ASSERT_TRUE(run->FindSlot(entries[i].key.bits(), entries[i].id, &version,
                              &deleted));
    EXPECT_EQ(version, entries[i].version);
    EXPECT_EQ(deleted, entries[i].deleted);
  }
  EXPECT_FALSE(run->FindSlot(entries[0].key.bits(), "no-such-id", &version,
                             &deleted));
}

TEST(DiskRunTest, OverlongKeysRoundTrip) {
  // Keys beyond kMaxCompressedKeyBits are stored with shared == 0 (key
  // aliases the block).
  MemEnv env;
  BlockCache cache(1 << 20);
  std::vector<Entry> entries;
  const std::string base(run_format::kMaxCompressedKeyBits + 40, '0');
  for (int i = 0; i < 20; ++i) {
    std::string bits = base;
    for (int b = 4; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "t", "p" + std::to_string(i), i + 1));
  }
  // A short key between the long ones exercises prefix-sharing against
  // an aliased (overlong) predecessor.
  auto run = WriteAndOpen(&env, "run-1", 1, &cache, entries,
                          /*block_bytes=*/512);
  ASSERT_NE(run, nullptr);
  ExpectSameEntries(ScanWhole(run.get()), entries);
  uint64_t version = 0;
  bool deleted = false;
  ASSERT_TRUE(
      run->FindSlot(entries[7].key.bits(), "t", &version, &deleted));
  EXPECT_EQ(version, 8u);
}

TEST(DiskRunTest, CorruptBlockWedgesRun) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(300, "id");
  {
    DiskRunWriter writer(&env, "run-1", 256);
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
  cursor.Seek(run.get(), "");
  EXPECT_FALSE(cursor.valid());  // First block fails its checksum.
  EXPECT_FALSE(run->status().ok());
}

TEST(DiskRunTest, TruncatedFooterFailsOpen) {
  MemEnv env;
  BlockCache cache(1 << 20);
  const std::vector<Entry> entries = SortedEntries(100, "id");
  {
    DiskRunWriter writer(&env, "run-1", 256);
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
                        "pay" + std::to_string(op), 1 + rng.NextBounded(9),
                        rng.NextBounded(5) == 0);
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
  // Both engines write the same record codec: overlong keys unshared,
  // short keys prefix-shared, including against an overlong predecessor.
  const std::string zeros(run_format::kMaxCompressedKeyBits + 16, '0');
  Rng rng(20261017);
  std::vector<Entry> entries;
  for (int i = 0; i < 200; ++i) {
    std::string bits = zeros.substr(0, 120 + rng.NextBounded(100));
    bits += rng.NextBounded(2) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "id" + std::to_string(rng.NextBounded(4)),
                                "p" + std::to_string(i), 1 + rng.NextBounded(5),
                                rng.NextBounded(6) == 0));
  }
  LocalStoreOptions mem_options;
  mem_options.memtable_flush_threshold = 16;
  mem_options.restart_interval = 4;
  LocalStore mem_store(mem_options);
  MemEnv env;
  LocalStoreOptions disk_options = DiskOptions(&env, "db");
  disk_options.restart_interval = 4;
  LocalStore disk_store(disk_options);
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
  size_t overlong = 0;
  for (const Entry& e : mem_store.GetAll()) {
    if (e.key.bits().size() > run_format::kMaxCompressedKeyBits) ++overlong;
  }
  EXPECT_GT(overlong, 0u);
  ExpectSameEntries(disk_store.GetAll(), mem_store.GetAll());
  mem_store.Compact();
  disk_store.Compact();
  ExpectSameEntries(disk_store.GetAll(), mem_store.GetAll());
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
      store.Apply(MakeEntry("01" + std::to_string(i % 2), "t" + std::to_string(i),
                            "p", i + 1));
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
    ASSERT_TRUE(store.Apply(MakeEntry("0101", "t" + std::to_string(i), "p")));
  }
  env.set_fail_after(0);  // Every subsequent Env mutation fails.
  store.Apply(MakeEntry("0101", "t3", "p"));  // Triggers a failing flush.
  EXPECT_FALSE(store.io_status().ok());
  // Wedged: mutations no-op, reads still serve.
  EXPECT_FALSE(store.Apply(MakeEntry("0110", "t9", "p")));
  EXPECT_EQ(store.BulkLoad({MakeEntry("0111", "t8", "p")}), 0u);
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
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1", "hello")));
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
      store.Apply(MakeEntry(bits, "id", "p" + std::to_string(i)));
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
