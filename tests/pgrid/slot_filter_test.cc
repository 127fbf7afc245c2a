// Per-run slot filters (DESIGN.md §6): every run reports every slot it
// holds, however it was written (built, merged, reset, extracted, written
// to disk, reopened), and rules out all but a few absent slots.
#include "pgrid/slot_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pgrid/backend_disk.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"
#include "pgrid/sorted_run.h"
#include "pgrid/storage_backend.h"

namespace unistore {
namespace pgrid {
namespace {

using storage::BlockCache;
using storage::DiskRun;
using storage::MemEnv;

Key RandomKey(Rng* rng, size_t bits) {
  unsigned char bytes[Key::kMaxBytes];
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng->Next());
  return Key::FromBytes(bytes, bits);
}

bool SlotLess(const Entry& a, const Entry& b) {
  const int c = a.key.Compare(b.key);
  return c != 0 ? c < 0 : a.id < b.id;
}

// `n` random slots in slot order: mostly full-width keys, some shorter,
// several ids per key, ids of 1 to 24 bytes (across the hash's 8-byte
// words), a tombstone now and then.
std::vector<Entry> RandomSlots(Rng* rng, size_t n) {
  std::vector<Entry> entries;
  while (entries.size() < n) {
    const Key key =
        RandomKey(rng, rng->NextBounded(4) == 0 ? 1 + rng->NextBounded(127)
                                                : kKeyBits);
    const size_t ids = 1 + rng->NextBounded(3);
    for (size_t i = 0; i < ids && entries.size() < n; ++i) {
      Entry e;
      e.key = key;
      const size_t len = 1 + rng->NextBounded(24);
      for (size_t c = 0; c < len; ++c) {
        e.id.push_back(static_cast<char>('a' + rng->NextBounded(26)));
      }
      e.version = 1 + rng->NextBounded(100);
      e.deleted = rng->NextBounded(10) == 0;
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(), SlotLess);
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key && a.id == b.id;
                            }),
                entries.end());
  return entries;
}

// Every entry's slot passes `run`'s filter and is found with its version.
void ExpectEverySlot(const SortedRun& run, const std::vector<Entry>& entries) {
  ASSERT_EQ(run.size(), entries.size());
  for (const Entry& e : entries) {
    EXPECT_TRUE(run.filter().MayContain(SlotHash(e.key, e.id))) << e.id;
    uint64_t version = 0;
    bool deleted = false;
    ASSERT_TRUE(run.FindSlot({e.key, e.id}, &version, &deleted)) << e.id;
    EXPECT_EQ(version, e.version);
    EXPECT_EQ(deleted, e.deleted);
  }
}

// Every entry is found through the backend's point probe.
void ExpectBackendFindsEverySlot(const StorageBackend& backend,
                                 const std::vector<Entry>& entries) {
  for (const Entry& e : entries) {
    uint64_t version = 0;
    bool deleted = false;
    ASSERT_TRUE(backend.FindSlot({e.key, e.id}, &version, &deleted)) << e.id;
    EXPECT_EQ(version, e.version);
    EXPECT_EQ(deleted, e.deleted);
  }
}

TEST(SlotFilterTest, BuiltRunsReportEverySlot) {
  Rng rng(11);
  for (size_t n : {1u, 7u, 51u, 52u, 1000u, 5000u}) {
    SCOPED_TRACE(n);
    const std::vector<Entry> entries = RandomSlots(&rng, n);
    ExpectEverySlot(SortedRun::Build(EntryRunInput(entries)), entries);
  }
}

TEST(SlotFilterTest, FourWayMergeReportsEverySlot) {
  // Disjoint random runs: a slot the merged filter lost would be found
  // nowhere else.
  Rng rng(12);
  const std::vector<Entry> all = RandomSlots(&rng, 4000);
  std::vector<std::vector<Entry>> parts(4);
  for (const Entry& e : all) parts[rng.NextBounded(4)].push_back(e);
  MemoryBackend backend;
  RunStats stats;
  for (const auto& part : parts) {
    ASSERT_TRUE(
        backend.AppendRun(EntryRunInput(part), RunOrigin::kFlush, &stats)
            .ok());
  }
  ASSERT_TRUE(backend.MergeRuns(0, 4, &stats).ok());
  ASSERT_EQ(backend.run_count(), 1u);
  ExpectEverySlot(backend.run(0), all);
}

TEST(SlotFilterTest, ResetAndExtractedRunsReportEverySlot) {
  Rng rng(13);
  const std::vector<Entry> all = RandomSlots(&rng, 3000);
  MemoryBackend backend;
  ASSERT_TRUE(backend.ResetTo(EntryRunInput(all)).ok());
  ASSERT_EQ(backend.run_count(), 1u);
  ExpectEverySlot(backend.run(0), all);

  // ExtractNotMatching rebuilds the kept half into one run.
  LocalStoreOptions options;
  options.memtable_flush_threshold = 256;
  LocalStore store(options);
  EXPECT_EQ(store.BulkLoad(all), all.size());
  const Key half = Key::FromBits("1");
  const std::vector<Entry> removed = store.ExtractNotMatching(half);
  std::vector<Entry> kept;
  for (const Entry& e : all) {
    if (half.IsPrefixOf(e.key)) kept.push_back(e);
  }
  ASSERT_FALSE(kept.empty());
  ASSERT_FALSE(removed.empty());
  const auto& memory = static_cast<const MemoryBackend&>(store.backend());
  ASSERT_EQ(memory.run_count(), 1u);
  ExpectEverySlot(memory.run(0), kept);
}

TEST(SlotFilterTest, DiskRunsReportEverySlotAsWrittenAndReopened) {
  Rng rng(14);
  const std::vector<Entry> all = RandomSlots(&rng, 3000);
  std::vector<std::vector<Entry>> parts(4);
  for (const Entry& e : all) parts[rng.NextBounded(4)].push_back(e);
  MemEnv env;
  DiskBackendOptions options;
  options.data_dir = "db";
  options.env = &env;
  options.block_bytes = 512;
  {
    auto opened = DiskBackend::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    DiskBackend& backend = *opened.value();
    RunStats stats;
    for (const auto& part : parts) {
      ASSERT_TRUE(
          backend.AppendRun(EntryRunInput(part), RunOrigin::kBulkLoad, &stats)
              .ok());
    }
    ExpectBackendFindsEverySlot(backend, all);  // Filters from the writer.
    ASSERT_TRUE(backend.MergeRuns(1, 3, &stats).ok());
    ASSERT_EQ(backend.run_count(), 2u);
    ExpectBackendFindsEverySlot(backend, all);  // A merged run's filter.
  }
  // Reopening rebuilds each run's filter from its records.
  auto reopened = DiskBackend::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ASSERT_EQ(reopened.value()->run_count(), 2u);
  ExpectBackendFindsEverySlot(*reopened.value(), all);
  EXPECT_TRUE(reopened.value()->status().ok());
}

// Absent slots: random ones, and ones one id away from a present slot.
std::vector<std::pair<Key, std::string>> AbsentSlots(
    Rng* rng, const std::vector<Entry>& present, size_t n) {
  std::vector<std::pair<Key, std::string>> absent;
  while (absent.size() < n) {
    if (absent.size() % 2 == 0) {
      absent.emplace_back(RandomKey(rng, kKeyBits), "absent");
    } else {
      const Entry& near = present[rng->NextBounded(present.size())];
      absent.emplace_back(near.key, near.id + "~");
    }
  }
  return absent;
}

TEST(SlotFilterTest, FalsePositivesStayUnderTwoAndAHalfPercent) {
  Rng rng(15);
  const std::vector<Entry> entries = RandomSlots(&rng, 20000);
  const SortedRun run = SortedRun::Build(EntryRunInput(entries));
  EXPECT_EQ(run.filter().bytes(),
            (entries.size() * SlotFilter::kBitsPerEntry + 511) / 512 * 64);
  size_t maybe = 0;
  constexpr size_t kProbes = 100000;
  for (const auto& [key, id] : AbsentSlots(&rng, entries, kProbes)) {
    if (run.filter().MayContain(SlotHash(key, id))) ++maybe;
  }
  EXPECT_LE(maybe, kProbes * 25 / 1000) << maybe << " of " << kProbes;
}

TEST(SlotFilterTest, AbsentProbesOfADiskRunLoadFewBlocks) {
  // A slot the filter rules out loads no block, so 1,000 absent probes
  // look up far fewer blocks than 1,000 binary searches would.
  Rng rng(16);
  const std::vector<Entry> entries = RandomSlots(&rng, 4000);
  MemEnv env;
  {
    storage::DiskRunWriter writer(&env, "run-1", 256, entries.size());
    for (const Entry& e : entries) writer.Add(EntryView(e));
    ASSERT_TRUE(writer.Finish().ok());
  }
  BlockCache cache(1 << 20);
  auto opened = DiskRun::Open(&env, "run-1", 1, &cache);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const std::shared_ptr<DiskRun> run = opened.value();
  ASSERT_GT(run->block_count(), 100u);
  const uint64_t before = cache.hits() + cache.misses();
  size_t found = 0;
  for (const auto& [key, id] : AbsentSlots(&rng, entries, 1000)) {
    uint64_t version = 0;
    bool deleted = false;
    if (run->FindSlot({key, id}, &version, &deleted)) ++found;
  }
  EXPECT_EQ(found, 0u);
  EXPECT_LE(cache.hits() + cache.misses() - before, 300u);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
