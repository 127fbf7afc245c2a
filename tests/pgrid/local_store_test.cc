#include "pgrid/local_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

// Allocation-counting hook: the zero-copy discipline of the visitor read
// path (DESIGN.md §6) is verified by counting global operator new calls
// around a scan.
#include "common/alloc_hook.h"
#include "common/codec.h"
#include "common/rng.h"
#include "pgrid/backend_env.h"
#include "pgrid/ophash.h"
#include "pgrid/run_summary.h"
#include "pgrid/sorted_run.h"
#include "pgrid/storage_backend.h"

namespace unistore {
namespace pgrid {
namespace {

using alloc_hook::CountCalls;

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

// Small thresholds so a handful of entries exercises flush + compaction.
LocalStoreOptions TinyEngine() {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 4;
  o.max_runs = 2;
  return o;
}

TEST(LocalStoreTest, InsertAndGet) {
  LocalStore store;
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1")));
  auto got = store.Get(Key::FromBits("0101"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, "t1");
  EXPECT_EQ(store.live_size(), 1u);
}

TEST(LocalStoreTest, MultipleIdsUnderOneKey) {
  LocalStore store;
  store.Apply(MakeEntry("0101", "t1"));
  store.Apply(MakeEntry("0101", "t2"));
  EXPECT_EQ(store.Get(Key::FromBits("0101")).size(), 2u);
  EXPECT_EQ(store.live_size(), 2u);
}

TEST(LocalStoreTest, HigherVersionWins) {
  LocalStore store;
  store.Apply(MakeEntry("0101", "t1", 1));
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1", 2)));
  auto got = store.Get(Key::FromBits("0101"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].version, 2u);
  EXPECT_EQ(store.live_size(), 1u);
}

TEST(LocalStoreTest, LowerOrEqualVersionIgnored) {
  LocalStore store;
  store.Apply(MakeEntry("0101", "t1", 2));
  EXPECT_FALSE(store.Apply(MakeEntry("0101", "t1", 1)));
  EXPECT_FALSE(store.Apply(MakeEntry("0101", "t1", 2)));
  EXPECT_EQ(store.Get(Key::FromBits("0101"))[0].version, 2u);
}

TEST(LocalStoreTest, TombstoneHidesAndPersists) {
  LocalStore store;
  store.Apply(MakeEntry("0101", "t1", 1));
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1", 2, /*deleted=*/true)));
  EXPECT_TRUE(store.Get(Key::FromBits("0101")).empty());
  EXPECT_EQ(store.live_size(), 0u);
  EXPECT_EQ(store.total_size(), 1u);  // Tombstone remains.
  // Re-delivery of the old version cannot resurrect.
  EXPECT_FALSE(store.Apply(MakeEntry("0101", "t1", 1)));
  EXPECT_TRUE(store.Get(Key::FromBits("0101")).empty());
  // A newer write revives the slot.
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1", 3)));
  EXPECT_EQ(store.live_size(), 1u);
}

TEST(LocalStoreTest, GetRangeInclusive) {
  LocalStore store;
  store.Apply(MakeEntry("0001", "a"));
  store.Apply(MakeEntry("0100", "b"));
  store.Apply(MakeEntry("0110", "c"));
  store.Apply(MakeEntry("1000", "d"));
  auto got = store.GetRange({Key::FromBits("0100"), Key::FromBits("0110")});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, "b");
  EXPECT_EQ(got[1].id, "c");
}

TEST(LocalStoreTest, GetByPrefix) {
  LocalStore store;
  store.Apply(MakeEntry("0001", "a"));
  store.Apply(MakeEntry("0010", "b"));
  store.Apply(MakeEntry("0011", "c"));
  store.Apply(MakeEntry("0100", "d"));
  auto got = store.GetByPrefix(Key::FromBits("001"));
  ASSERT_EQ(got.size(), 2u);
  auto all = store.GetByPrefix(Key());
  EXPECT_EQ(all.size(), 4u);
}

TEST(LocalStoreTest, ExtractNotMatchingSplitsStore) {
  LocalStore store;
  store.Apply(MakeEntry("0001", "a"));
  store.Apply(MakeEntry("0101", "b"));
  store.Apply(MakeEntry("0111", "c"));
  auto removed = store.ExtractNotMatching(Key::FromBits("01"));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].id, "a");
  EXPECT_EQ(store.live_size(), 2u);
  EXPECT_TRUE(store.Get(Key::FromBits("0001")).empty());
}

TEST(LocalStoreTest, GetAllIncludesTombstones) {
  LocalStore store;
  store.Apply(MakeEntry("0001", "a"));
  store.Apply(MakeEntry("0010", "b", 2, true));
  EXPECT_EQ(store.GetAll().size(), 2u);
  EXPECT_EQ(store.GetAllLive().size(), 1u);
}

TEST(LocalStoreTest, ClearResets) {
  LocalStore store;
  store.Apply(MakeEntry("0001", "a"));
  store.Clear();
  EXPECT_EQ(store.live_size(), 0u);
  EXPECT_EQ(store.total_size(), 0u);
}

// --- Engine mechanics: memtable, runs, compaction --------------------------

TEST(LocalStoreEngineTest, FlushAndCompactionBoundRunCount) {
  LocalStore store(TinyEngine());
  for (int i = 0; i < 64; ++i) {
    std::string bits;
    for (int b = 5; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id"));
  }
  EXPECT_LE(store.run_count(), 2u);
  EXPECT_LT(store.memtable_size(), 4u);
  EXPECT_EQ(store.live_size(), 64u);
  EXPECT_EQ(store.GetAllLive().size(), 64u);
}

TEST(LocalStoreEngineTest, MaxRunsAtHardCapCompactsSafely) {
  // Regression: at max_runs == kMaxRuns the compaction triggered by a
  // flush scans while kMaxRuns + 1 runs exist; the merge cursor array
  // must accommodate that transient extra source.
  LocalStoreOptions options;
  options.memtable_flush_threshold = 1;  // Every Apply flushes a run.
  options.max_runs = LocalStoreOptions::kMaxRuns;
  LocalStore store(options);
  for (int i = 0; i < 64; ++i) {
    std::string bits;
    for (int b = 5; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id"));
  }
  EXPECT_LE(store.run_count(), LocalStoreOptions::kMaxRuns);
  EXPECT_EQ(store.live_size(), 64u);
  EXPECT_EQ(store.GetAllLive().size(), 64u);
}

TEST(LocalStoreEngineTest, VersionOrderingAcrossFlushBoundaries) {
  LocalStore store(TinyEngine());
  // v1 lands in a run, v2 shadows it from the memtable, then from a newer
  // run after another flush.
  store.Apply(MakeEntry("0101", "t1", 1));
  store.Flush();
  EXPECT_TRUE(store.Apply(MakeEntry("0101", "t1", 2)));
  EXPECT_EQ(store.Get(Key::FromBits("0101"))[0].version, 2u);
  store.Flush();
  EXPECT_EQ(store.run_count(), 2u);
  EXPECT_EQ(store.Get(Key::FromBits("0101"))[0].version, 2u);
  // Stale re-delivery is rejected even though v1 still sits in an old run.
  EXPECT_FALSE(store.Apply(MakeEntry("0101", "t1", 1)));
  store.Compact();
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.Get(Key::FromBits("0101"))[0].version, 2u);
  EXPECT_EQ(store.total_size(), 1u);
  EXPECT_EQ(store.live_size(), 1u);
}

TEST(LocalStoreEngineTest, TombstoneSurvivesCompaction) {
  LocalStore store(TinyEngine());
  store.Apply(MakeEntry("0101", "t1", 1));
  store.Flush();
  store.Apply(MakeEntry("0101", "t1", 2, /*deleted=*/true));
  store.Flush();
  store.Compact();
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.total_size(), 1u);
  EXPECT_EQ(store.live_size(), 0u);
  // The compacted run still carries the tombstone: anti-entropy sees it,
  // reads do not, and the old version cannot resurrect.
  EXPECT_EQ(store.GetAll().size(), 1u);
  EXPECT_TRUE(store.GetAll()[0].deleted);
  EXPECT_FALSE(store.Apply(MakeEntry("0101", "t1", 1)));
  EXPECT_TRUE(store.Get(Key::FromBits("0101")).empty());
}

TEST(LocalStoreEngineTest, ExtractNotMatchingAcrossRunsAndMemtable) {
  LocalStore store(TinyEngine());
  store.Apply(MakeEntry("0001", "a"));
  store.Apply(MakeEntry("0100", "b"));
  store.Flush();
  store.Apply(MakeEntry("1001", "c"));
  store.Apply(MakeEntry("0110", "d", 2, /*deleted=*/true));
  // Path specialization to "01": "0001" and "1001" leave; the tombstone
  // under "0110" stays (tombstones are data too).
  auto removed = store.ExtractNotMatching(Key::FromBits("01"));
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].id, "a");
  EXPECT_EQ(removed[1].id, "c");
  EXPECT_EQ(store.live_size(), 1u);
  EXPECT_EQ(store.total_size(), 2u);
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.memtable_size(), 0u);
}

TEST(LocalStoreEngineTest, ScanEarlyExitStopsMerge) {
  LocalStore store(TinyEngine());
  for (int i = 0; i < 16; ++i) {
    std::string bits;
    for (int b = 3; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id"));
  }
  size_t visited = 0;
  bool completed = store.ScanAllLive([&visited](const EntryView&) {
    return ++visited < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 5u);
}

TEST(LocalStoreEngineTest, VisitorReadPathDoesNotAllocate) {
  LocalStore store(TinyEngine());
  // Spread entries across two runs and the memtable so the scan really
  // merges all sources.
  for (int i = 0; i < 11; ++i) {
    std::string bits;
    for (int b = 3; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id" + std::to_string(i)));
  }
  ASSERT_GE(store.run_count(), 1u);
  ASSERT_GE(store.memtable_size(), 1u);

  const KeyRange range{Key::FromBits("0000"), Key::FromBits("1111")};
  size_t visited = 0;
  size_t id_bytes = 0;
  const uint64_t allocs = CountCalls([&] {
    store.ScanRange(range, [&](const EntryView& e) {
      ++visited;
      id_bytes += e.id.size();
      return true;
    });
  });
  EXPECT_EQ(visited, 11u);
  EXPECT_GT(id_bytes, 0u);
  EXPECT_EQ(allocs, 0u) << "visitor read path must not touch the heap";

  // Point and full scans are allocation-free too.
  EXPECT_EQ(CountCalls([&] {
              store.ScanKey(Key::FromBits("0101"), [](const EntryView&) {
                return true;
              });
              store.ScanAll([](const EntryView&) { return true; });
            }),
            0u);
}

// --- Differential property test against the original nested-map engine ----

// Reference model: the exact pre-rewrite implementation (nested std::map,
// copy-returning reads).
class MapStoreModel {
 public:
  bool Apply(const Entry& entry) {
    auto& slot_map = entries_[entry.key];
    auto it = slot_map.find(entry.id);
    if (it == slot_map.end()) {
      if (!entry.deleted) ++live_count_;
      slot_map.emplace(entry.id, entry);
      return true;
    }
    if (entry.version <= it->second.version) return false;
    if (!it->second.deleted && entry.deleted) --live_count_;
    if (it->second.deleted && !entry.deleted) ++live_count_;
    it->second = entry;
    return true;
  }

  std::vector<Entry> GetRange(const KeyRange& range) const {
    std::vector<Entry> out;
    for (auto it = entries_.lower_bound(range.lo);
         it != entries_.end() && it->first.Compare(range.hi) <= 0; ++it) {
      for (const auto& [id, e] : it->second) {
        if (!e.deleted) out.push_back(e);
      }
    }
    return out;
  }

  std::vector<Entry> GetByPrefix(const Key& prefix) const {
    std::vector<Entry> out;
    for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
      if (!prefix.IsPrefixOf(it->first)) break;
      for (const auto& [id, e] : it->second) {
        if (!e.deleted) out.push_back(e);
      }
    }
    return out;
  }

  std::vector<Entry> GetAll() const {
    std::vector<Entry> out;
    for (const auto& [key, slot_map] : entries_) {
      for (const auto& [id, e] : slot_map) out.push_back(e);
    }
    return out;
  }

  std::vector<Entry> ExtractNotMatching(const Key& path) {
    std::vector<Entry> removed;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (path.IsPrefixOf(it->first)) {
        ++it;
        continue;
      }
      for (const auto& [id, e] : it->second) {
        if (!e.deleted) --live_count_;
        removed.push_back(e);
      }
      it = entries_.erase(it);
    }
    return removed;
  }

  size_t live_size() const { return live_count_; }

 private:
  std::map<Key, std::map<std::string, Entry>> entries_;
  size_t live_count_ = 0;
};

TEST(LocalStoreDifferentialTest, RandomWorkloadMatchesMapModel) {
  Rng rng(20260728);
  for (int round = 0; round < 8; ++round) {
    LocalStoreOptions options;
    options.memtable_flush_threshold = 1 + rng.NextBounded(16);
    options.max_runs = 1 + rng.NextBounded(4);
    LocalStore store(options);
    MapStoreModel model;

    for (int op = 0; op < 800; ++op) {
      Entry e;
      std::string bits;
      for (int b = 0; b < 6; ++b) bits += rng.NextBounded(2) ? '1' : '0';
      e.key = Key::FromBits(bits);
      e.id = "id" + std::to_string(rng.NextBounded(8));
      e.version = 1 + rng.NextBounded(12);
      e.deleted = rng.NextBounded(4) == 0;
      ASSERT_EQ(store.Apply(e), model.Apply(e)) << "op " << op;

      if (op % 97 == 0) {
        // Occasional path specialization, as exchanges trigger it.
        std::string path;
        for (int b = 0; b < 2; ++b) path += rng.NextBounded(2) ? '1' : '0';
        auto removed_new = store.ExtractNotMatching(Key::FromBits(path));
        auto removed_old = model.ExtractNotMatching(Key::FromBits(path));
        ASSERT_EQ(removed_new, removed_old) << "extract at op " << op;
      }
    }

    EXPECT_EQ(store.live_size(), model.live_size());
    EXPECT_EQ(store.GetAll(), model.GetAll());
    EXPECT_EQ(store.GetAllLive().size(), store.live_size());
    EXPECT_EQ(store.total_size(), model.GetAll().size());

    // Random range / prefix probes.
    for (int probe = 0; probe < 32; ++probe) {
      std::string lo, hi, prefix;
      for (int b = 0; b < 6; ++b) lo += rng.NextBounded(2) ? '1' : '0';
      for (int b = 0; b < 6; ++b) hi += rng.NextBounded(2) ? '1' : '0';
      const uint64_t prefix_len = rng.NextBounded(5);
      for (uint64_t b = 0; b < prefix_len; ++b) {
        prefix += rng.NextBounded(2) ? '1' : '0';
      }
      if (lo > hi) std::swap(lo, hi);
      KeyRange range{Key::FromBits(lo), Key::FromBits(hi)};
      EXPECT_EQ(store.GetRange(range), model.GetRange(range));
      EXPECT_EQ(store.GetByPrefix(Key::FromBits(prefix)),
                model.GetByPrefix(Key::FromBits(prefix)));
      EXPECT_EQ(store.Get(range.lo),
                model.GetRange(KeyRange{range.lo, range.lo}));
    }
  }
}

// --- Memtable: seeded history against a slot-map model ---------------------

// Reference for the memtable test: each slot's newest entry, and which
// slots the store's documented flush rules leave in the memtable.
class MemtableModel {
 public:
  using Slot = std::pair<Key, std::string>;

  explicit MemtableModel(size_t threshold) : threshold_(threshold) {}

  bool Apply(const Entry& e) {
    if (!Newer(e)) return false;
    slots_[SlotOf(e)] = e;
    memtable_.insert(SlotOf(e));
    MaybeFlush();
    return true;
  }

  // Write (`write`) or BulkLoad: the batch deduplicated by slot (highest
  // version, then first arrival), its fresh slots to a run unless a
  // small Write puts them in the memtable, its known slots made newer
  // always through the memtable. Returns the changed count.
  size_t Batch(const std::vector<Entry>& batch, bool write) {
    std::map<Slot, Entry> newest;
    for (const Entry& e : batch) {
      auto [it, inserted] = newest.emplace(SlotOf(e), e);
      if (!inserted && e.version > it->second.version) it->second = e;
    }
    std::vector<Slot> fresh;
    std::vector<Slot> known;
    for (const auto& [slot, e] : newest) {
      if (!Newer(e)) continue;
      (slots_.count(slot) != 0 ? known : fresh).push_back(slot);
      slots_[slot] = e;
    }
    const size_t changed = fresh.size() + known.size();
    if (write) {
      if (changed < threshold_) memtable_.insert(fresh.begin(), fresh.end());
      memtable_.insert(known.begin(), known.end());
      MaybeFlush();
    } else {
      for (const Slot& slot : known) {
        memtable_.insert(slot);
        MaybeFlush();
      }
    }
    return changed;
  }

  void Flush() { memtable_.clear(); }

  std::vector<Entry> All() const {
    std::vector<Entry> out;
    for (const auto& [slot, e] : slots_) out.push_back(e);
    return out;
  }
  std::vector<Entry> Live(const Key& lo, const Key& hi) const {
    std::vector<Entry> out;
    for (const auto& [slot, e] : slots_) {
      if (!e.deleted && lo.Compare(slot.first) <= 0 &&
          slot.first.Compare(hi) <= 0) {
        out.push_back(e);
      }
    }
    return out;
  }
  std::vector<Entry> LiveUnder(const Key& prefix) const {
    std::vector<Entry> out;
    for (const auto& [slot, e] : slots_) {
      if (!e.deleted && prefix.IsPrefixOf(slot.first)) out.push_back(e);
    }
    return out;
  }
  // The memtable's entries in slot order, from `start`.
  std::vector<Entry> MemtableFrom(size_t start) const {
    std::vector<Entry> out;
    size_t i = 0;
    for (const Slot& slot : memtable_) {
      if (i++ >= start) out.push_back(slots_.at(slot));
    }
    return out;
  }
  size_t live_size() const {
    size_t live = 0;
    for (const auto& [slot, e] : slots_) live += e.deleted ? 0 : 1;
    return live;
  }
  size_t total_size() const { return slots_.size(); }
  size_t memtable_size() const { return memtable_.size(); }

 private:
  static Slot SlotOf(const Entry& e) { return {e.key, e.id}; }
  bool Newer(const Entry& e) const {
    auto it = slots_.find(SlotOf(e));
    return it == slots_.end() || e.version > it->second.version;
  }
  void MaybeFlush() {
    if (memtable_.size() >= threshold_) memtable_.clear();
  }

  size_t threshold_;
  std::map<Slot, Entry> slots_;
  std::set<Slot> memtable_;
};

std::vector<Entry> MemtableOf(const LocalStore& store, size_t start) {
  std::vector<Entry> out;
  store.ScanMemtableFrom(start, [&out](const EntryView& e) {
    out.push_back(e.ToEntry());
    return true;
  });
  return out;
}

// Writes, applies, bulk loads, tombstones, stale versions, scans between
// writes, flushes and disk reopens, checked against MemtableModel on a
// memory store and a MemEnv disk store fed the same history.
TEST(LocalStoreMemtableTest, SeededHistoryMatchesSlotModel) {
  const std::string kIds[] = {"a", "id-0042", "q#0123456789abcd",
                              "o#an-object-id-of-thirty-two-b"};
  for (const size_t threshold : {size_t{1}, size_t{7}, size_t{512}}) {
    SCOPED_TRACE("memtable_flush_threshold " + std::to_string(threshold));
    Rng rng(20261020 + threshold);
    storage::MemEnv env;
    LocalStoreOptions options;
    options.memtable_flush_threshold = threshold;
    LocalStoreOptions disk_options = options;
    disk_options.backend = LocalStoreOptions::Backend::kDisk;
    disk_options.data_dir = "db";
    disk_options.env = &env;
    disk_options.block_bytes = 256;
    LocalStore mem(options);
    auto disk = std::make_unique<LocalStore>(disk_options);
    MemtableModel model(threshold);

    auto random_entry = [&rng, &kIds]() {
      std::string bits;
      for (int b = 0; b < 9; ++b) bits += rng.NextBounded(2) ? '1' : '0';
      return MakeEntry(bits, kIds[rng.NextBounded(4)], 1 + rng.NextBounded(6),
                       rng.NextBounded(5) == 0);
    };
    auto random_key = [&rng](size_t bits) {
      std::string s;
      for (size_t b = 0; b < bits; ++b) s += rng.NextBounded(2) ? '1' : '0';
      return Key::FromBits(s);
    };
    // Whether the memtable may hold entries no log frame holds (Apply and
    // BulkLoad updates); a reopen would drop them, so it flushes first.
    bool unlogged = false;
    size_t reopens = 0;
    size_t largest_replay = 0;
    const size_t max_batch = threshold + threshold / 4 + 2;

    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const uint64_t kind = rng.NextBounded(20);
      if (kind < 6) {
        const Entry e = random_entry();
        const bool changed = model.Apply(e);
        ASSERT_EQ(mem.Apply(e), changed);
        ASSERT_EQ(disk->Apply(e), changed);
        unlogged = unlogged || changed;
      } else if (kind < 14) {
        std::vector<Entry> batch(1 + rng.NextBounded(max_batch));
        for (Entry& e : batch) e = random_entry();
        const bool write = kind < 11;
        const size_t changed = model.Batch(batch, write);
        if (write) {
          ASSERT_EQ(mem.Write(batch), changed);
          ASSERT_EQ(disk->Write(batch), changed);
        } else {
          ASSERT_EQ(mem.BulkLoad(batch), changed);
          ASSERT_EQ(disk->BulkLoad(batch), changed);
          unlogged = true;
        }
      } else if (kind < 17) {
        // A scan between writes orders only the slots new since the last.
        Key lo = random_key(rng.NextBounded(10));
        Key hi = random_key(9);
        if (hi < lo) std::swap(lo, hi);
        const Key prefix = random_key(rng.NextBounded(5));
        for (LocalStore* store : {&mem, disk.get()}) {
          ASSERT_EQ(store->GetRange(KeyRange{lo, hi}), model.Live(lo, hi));
          ASSERT_EQ(store->GetByPrefix(prefix), model.LiveUnder(prefix));
          ASSERT_EQ(store->Get(hi), model.Live(hi, hi));
        }
      } else if (kind < 18) {
        model.Flush();
        mem.Flush();
        disk->Flush();
      } else {
        if (unlogged) {
          model.Flush();
          mem.Flush();
          disk->Flush();
        }
        const size_t held = disk->memtable_size();
        disk.reset();
        disk = std::make_unique<LocalStore>(disk_options);
        ASSERT_TRUE(disk->io_status().ok());
        ASSERT_EQ(disk->memtable_size(), held) << "log replay";
        largest_replay = std::max(largest_replay, held);
        ++reopens;
      }
      if (model.memtable_size() == 0) unlogged = false;

      for (LocalStore* store : {&mem, disk.get()}) {
        ASSERT_EQ(store->live_size(), model.live_size());
        ASSERT_EQ(store->total_size(), model.total_size());
        ASSERT_EQ(store->memtable_size(), model.memtable_size());
        ASSERT_EQ(MemtableOf(*store, 0), model.MemtableFrom(0));
        const size_t start = rng.NextBounded(model.memtable_size() + 2);
        ASSERT_EQ(MemtableOf(*store, start), model.MemtableFrom(start));
      }
      const std::vector<RunSummary> mem_runs = mem.RunSummaries();
      const std::vector<RunSummary> disk_runs = disk->RunSummaries();
      ASSERT_EQ(mem_runs.size(), disk_runs.size());
      for (size_t i = 0; i < mem_runs.size(); ++i) {
        EXPECT_EQ(mem_runs[i].entry_count, disk_runs[i].entry_count) << i;
        EXPECT_EQ(mem_runs[i].checksum, disk_runs[i].checksum) << i;
      }
      if (op % 25 == 0) {
        ASSERT_EQ(mem.GetAll(), model.All());
        ASSERT_EQ(disk->GetAll(), model.All());
      }
    }
    EXPECT_EQ(mem.GetAll(), model.All());
    EXPECT_EQ(disk->GetAll(), model.All());
    EXPECT_GT(reopens, 0u);
    // At the largest threshold a reopen replays enough logged slots to
    // grow the index several times over.
    if (threshold == 512) {
      EXPECT_GT(largest_replay, 64u);
    }
  }
}

// Hundreds of slots written with no scan between them join the slot
// order of an empty memtable and of one already ordered, through Apply
// and through Write; keys vary in every byte of their first word.
TEST(LocalStoreMemtableTest, LongStretchesOfNewSlotsScanInOrder) {
  LocalStoreOptions options;
  options.memtable_flush_threshold = 1 << 20;
  LocalStore store(options);
  Rng rng(404);
  std::map<std::pair<Key, std::string>, Entry> model;
  size_t next_id = 0;
  auto random_entry = [&rng, &next_id]() {
    std::string bits;
    for (int b = 0; b < 64; ++b) bits += rng.NextBounded(2) ? '1' : '0';
    // Every fourth id repeats one under a short key prefix, so some slots
    // share a first key word and differ further on.
    if (next_id % 4 == 3) bits.resize(6);
    return MakeEntry(bits, "id-" + std::to_string(next_id++ % 700));
  };
  for (const size_t stretch : {700, 1, 300, 600, 257, 256, 2}) {
    SCOPED_TRACE("stretch " + std::to_string(stretch));
    std::vector<Entry> batch;
    for (size_t i = 0; i < stretch; ++i) {
      const Entry e = random_entry();
      if (model.count({e.key, e.id}) != 0) continue;
      model[{e.key, e.id}] = e;
      if (i % 2 == 0) {
        ASSERT_TRUE(store.Apply(e));
      } else {
        batch.push_back(e);
      }
    }
    ASSERT_EQ(store.Write(batch), batch.size());
    ASSERT_EQ(store.run_count(), 0u);
    std::vector<Entry> expected;
    for (const auto& [slot, e] : model) expected.push_back(e);
    ASSERT_EQ(MemtableOf(store, 0), expected);
    ASSERT_EQ(store.GetAll(), expected);
  }
}

// --- Options validation ----------------------------------------------------

TEST(LocalStoreOptionsTest, SanitizedPassesValidKnobsThrough) {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 64;
  o.max_runs = 6;
  std::vector<std::string> warnings;
  LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(s.memtable_flush_threshold, 64u);
  EXPECT_EQ(s.max_runs, 6u);
}

TEST(LocalStoreOptionsTest, SanitizedClampsEveryBadKnobWithAWarning) {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 0;
  o.max_runs = 0;
  std::vector<std::string> warnings;
  LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_EQ(warnings.size(), 2u);
  EXPECT_EQ(s.memtable_flush_threshold, 1u);
  EXPECT_EQ(s.max_runs, 1u);
}

TEST(LocalStoreOptionsTest, SanitizedClampsMaxRunsToHardCap) {
  LocalStoreOptions o;
  o.max_runs = 64;
  std::vector<std::string> warnings;
  LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_EQ(s.max_runs, LocalStoreOptions::kMaxRuns);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("max_runs"), std::string::npos);
}

TEST(LocalStoreOptionsTest, SanitizedToleratesNullWarningsVector) {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 0;
  o.max_runs = 64;
  LocalStoreOptions s = o.Sanitized(nullptr);  // Must not crash.
  EXPECT_EQ(s.memtable_flush_threshold, 1u);
  EXPECT_EQ(s.max_runs, LocalStoreOptions::kMaxRuns);
}

TEST(LocalStoreOptionsTest, SanitizedDiskWithoutDataDirFallsBackToMemory) {
  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  o.data_dir.clear();
  std::vector<std::string> warnings;
  LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_EQ(s.backend, LocalStoreOptions::Backend::kMemory);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("data_dir"), std::string::npos);
}

TEST(LocalStoreOptionsTest, SanitizedClampsTinyBlockBytes) {
  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  o.data_dir = "db";
  o.block_bytes = 1;
  std::vector<std::string> warnings;
  LocalStoreOptions s = o.Sanitized(&warnings);
  EXPECT_EQ(s.backend, LocalStoreOptions::Backend::kDisk);
  EXPECT_EQ(s.block_bytes, 128u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("block_bytes"), std::string::npos);
}

TEST(LocalStoreOptionsTest, ConstructorAppliesSanitizedOptions) {
  LocalStoreOptions o;
  o.max_runs = 64;
  o.memtable_flush_threshold = 0;
  LocalStore store(o);  // Logs warnings; must not crash or keep bad knobs.
  EXPECT_EQ(store.options().max_runs, LocalStoreOptions::kMaxRuns);
  EXPECT_EQ(store.options().memtable_flush_threshold, 1u);
}

// --- Bulk load -------------------------------------------------------------

TEST(LocalStoreBulkTest, BulkLoadIntoEmptyStoreBypassesMemtable) {
  LocalStore store;
  std::vector<Entry> batch;
  for (int i = 15; i >= 0; --i) {  // Unsorted on purpose.
    std::string bits;
    for (int b = 3; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    batch.push_back(MakeEntry(bits, "id"));
  }
  EXPECT_EQ(store.BulkLoad(batch), 16u);
  EXPECT_EQ(store.memtable_size(), 0u);
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.live_size(), 16u);
  // Sorted (key, id) iteration order.
  auto all = store.GetAllLive();
  ASSERT_EQ(all.size(), 16u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].key.bits(), all[i].key.bits());
  }
}

TEST(LocalStoreBulkTest, BulkLoadDedupesWithinBatchHighestVersionWins) {
  LocalStore store;
  std::vector<Entry> batch = {
      MakeEntry("0101", "t1", 1),
      MakeEntry("0101", "t1", 3),
      MakeEntry("0101", "t1", 2),
  };
  EXPECT_EQ(store.BulkLoad(batch), 1u);
  auto got = store.Get(Key::FromBits("0101"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].version, 3u);
  EXPECT_EQ(store.total_size(), 1u);
}

TEST(LocalStoreBulkTest, BulkLoadRespectsExistingVersions) {
  LocalStore store(TinyEngine());
  store.Apply(MakeEntry("0101", "t1", 5));
  store.Apply(MakeEntry("0110", "t2", 4, /*deleted=*/true));
  store.Flush();

  std::vector<Entry> batch = {
      MakeEntry("0101", "t1", 3),  // Older: ignored.
      MakeEntry("0110", "t2", 2),  // Tombstoned newer: ignored.
      MakeEntry("0111", "t3", 1),  // New slot: bulk run.
      MakeEntry("0101", "t2", 1),  // New id under known key.
  };
  EXPECT_EQ(store.BulkLoad(batch), 2u);
  EXPECT_EQ(store.Get(Key::FromBits("0101")).size(), 2u);
  EXPECT_EQ(store.Get(Key::FromBits("0101"))[0].version, 5u);
  EXPECT_TRUE(store.Get(Key::FromBits("0110")).empty());
  EXPECT_EQ(store.Get(Key::FromBits("0111"))[0].id, "t3");
}

TEST(LocalStoreBulkTest, BulkLoadNewerVersionOverridesThroughApplyPath) {
  LocalStore store(TinyEngine());
  store.Apply(MakeEntry("0101", "t1", 1));
  store.Flush();
  std::vector<Entry> batch = {MakeEntry("0101", "t1", 7)};
  EXPECT_EQ(store.BulkLoad(batch), 1u);
  auto got = store.Get(Key::FromBits("0101"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].version, 7u);
  EXPECT_EQ(store.total_size(), 1u);
}

TEST(LocalStoreBulkTest, BulkLoadStreamMatchesApplyStream) {
  // Identical data through the memtable path and the bulk path yields
  // byte-identical scan streams.
  std::vector<Entry> entries;
  for (int i = 0; i < 200; ++i) {
    std::string bits;
    for (int b = 7; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "id" + std::to_string(i % 3),
                                1 + (i % 4), i % 7 == 0));
  }
  LocalStore applied(TinyEngine());
  for (const auto& e : entries) applied.Apply(e);
  LocalStore bulked(TinyEngine());
  bulked.BulkLoad(entries);
  EXPECT_EQ(applied.GetAll(), bulked.GetAll());
  EXPECT_EQ(applied.live_size(), bulked.live_size());
  EXPECT_EQ(applied.total_size(), bulked.total_size());
}

// --- Prefix-compressed runs ------------------------------------------------

// Small flushes, so reads merge many runs and tiered compaction folds
// them into runs that span several restart blocks.
LocalStoreOptions CompressedEngine() {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 8;
  o.max_runs = 4;
  return o;
}

// The shape of a peer's store after trie partitioning, which prefix
// truncation is built for: every key under one 24-bit subtree, ids
// sharing the "a#id" index prefix, a tombstone every 97 entries.
std::vector<Entry> SharedPrefixDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Entry> entries;
  entries.reserve(n);
  const std::string shared_prefix = "010110011010010110100101";
  for (size_t i = 0; i < n; ++i) {
    std::string bits = shared_prefix;
    for (int b = 0; b < 104; ++b) bits += rng.NextBounded(2) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "a#id" + std::to_string(i),
                                1 + (i % 3), i % 97 == 0));
  }
  return entries;
}

TEST(LocalStoreCompressionTest, PrefixCompressedScansMatchModel) {
  std::vector<Entry> entries;
  Rng rng(99);
  for (int i = 0; i < 150; ++i) {
    std::string bits = "0101";  // Shared peer-path prefix.
    for (int b = 0; b < 12; ++b) bits += rng.NextBounded(2) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "a#id" + std::to_string(i),
                                1 + rng.NextBounded(3),
                                rng.NextBounded(8) == 0));
  }
  LocalStore packed(CompressedEngine());
  MapStoreModel model;
  for (const auto& e : entries) {
    EXPECT_EQ(packed.Apply(e), model.Apply(e));
  }
  // Merged runs of 32+ entries hold more than one restart block.
  ASSERT_GT(packed.write_stats().compacted_entries,
            2 * SortedRun::kRestartInterval);
  EXPECT_EQ(packed.GetAll(), model.GetAll());
  EXPECT_EQ(packed.Get(entries[7].key),
            model.GetRange(KeyRange{entries[7].key, entries[7].key}));
  EXPECT_EQ(packed.GetByPrefix(Key::FromBits("01010")),
            model.GetByPrefix(Key::FromBits("01010")));
  // The compacted run must be smaller than the entries' uncompressed
  // footprint.
  packed.Compact();
  ASSERT_EQ(packed.run_count(), 1u);
  size_t uncompressed = 0;
  for (const Entry& e : model.GetAll()) uncompressed += ApproxEntryBytes(e);
  EXPECT_LT(packed.resident_bytes(), uncompressed);
}

TEST(LocalStoreCompressionTest, CompactedSharedPrefixDataShrinksByAQuarter) {
  LocalStore store;
  store.BulkLoad(SharedPrefixDataset(200000, 55));
  store.Compact();
  ASSERT_EQ(store.run_count(), 1u);
  size_t uncompressed = 0;
  store.ScanAll([&uncompressed](const EntryView& e) {
    uncompressed += ApproxEntryBytes(e);
    return true;
  });
  const double reduction =
      1.0 - static_cast<double>(store.resident_bytes()) /
                static_cast<double>(uncompressed);
  EXPECT_GE(reduction, 0.25) << store.resident_bytes() << " resident bytes "
                             << "against " << uncompressed << " uncompressed";
  // Shared-prefix truncation is part of the saving: the same run with a
  // full key in every record is larger.
  const std::vector<Entry> slots = store.GetAll();
  EXPECT_LT(store.resident_bytes(),
            SortedRun::Build(EntryRunInput(slots), /*restart_interval=*/1)
                .resident_bytes());
}

TEST(LocalStoreCompressionTest, CompressedScanIsAllocationFree) {
  LocalStore store(CompressedEngine());
  for (int i = 0; i < 64; ++i) {
    std::string bits = "10";
    for (int b = 5; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id" + std::to_string(i)));
  }
  store.Compact();
  ASSERT_EQ(store.run_count(), 1u);
  size_t visited = 0;
  const uint64_t allocs = CountCalls([&] {
    store.ScanAll([&visited](const EntryView& e) {
      visited += e.key.size() > 0 ? 1 : 0;
      return true;
    });
  });
  EXPECT_EQ(visited, 64u);
  EXPECT_EQ(allocs, 0u) << "compressed-run scans must not touch the heap";
}

TEST(LocalStoreCompressionTest, OverlongKeysRoundTrip) {
  // No key is longer than kKeyBits. The longest ones, kKeyBits wide and
  // sharing 120+ bits with each other and with shorter keys, round-trip
  // through runs whose records share whole key bytes with their
  // predecessor, and through a merge of runs that both hold the
  // all-zero full-width key.
  LocalStoreOptions o = CompressedEngine();
  // Each run holds 24 entries, so its 17th record (index 16) is a
  // restart record: one of the five full-width keys 0^127 1.
  o.memtable_flush_threshold = 24;
  static_assert(SortedRun::kRestartInterval == 16,
                "the restart record this test places moves with the interval");
  LocalStore store(o);
  MapStoreModel model;
  const std::string zeros(kKeyBits, '0');
  std::vector<Entry> entries;
  for (int i = 0; i < 48; ++i) {
    std::string bits = zeros.substr(0, 120 + i % 8);
    if (i % 3 == 1) {
      bits = zeros.substr(0, kKeyBits - 1) + std::to_string(i % 2);
    }
    if (i % 3 == 2) bits += "1";
    entries.push_back(MakeEntry(bits, "id" + std::to_string(i)));
  }
  for (const Entry& e : entries) {
    EXPECT_EQ(store.Apply(e), model.Apply(e));
  }
  store.Flush();
  ASSERT_EQ(store.memtable_size(), 0u);
  ASSERT_EQ(store.run_count(), 2u);
  EXPECT_EQ(store.GetAll(), model.GetAll());
  const Key shared_key = Key::FromBits(zeros);
  auto got = store.Get(shared_key);
  // Entries 4, 10, 16 and 22 in the first run; 28, 34, 40 and 46 in the
  // second.
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(got, model.GetRange(KeyRange{shared_key, shared_key}));
  // Each run's five 0^127 1 records (12 to 16) straddle its restart.
  const Key restart_key = Key::FromBits(zeros.substr(0, kKeyBits - 1) + "1");
  got = store.Get(restart_key);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got, model.GetRange(KeyRange{restart_key, restart_key}));
  EXPECT_EQ(store.GetByPrefix(Key::FromBits(zeros.substr(0, 124))),
            model.GetByPrefix(Key::FromBits(zeros.substr(0, 124))));
}

TEST(LocalStoreCompressionTest, OverlongKeyRunGroupCompactsCorrectly) {
  // One run holds two full-width keys sharing 124 bits; tiered compaction
  // then merges that run with short-key neighbors. The merged run must
  // carry every entry, and later flushes and a full compaction must keep
  // matching the model.
  LocalStoreOptions o;
  o.memtable_flush_threshold = 4;
  o.max_runs = 8;
  LocalStore packed(o);
  MapStoreModel model;

  const std::string ones(kKeyBits - 4, '1');
  std::vector<Entry> entries;
  for (int i = 0; i < 14; ++i) {
    std::string bits = "0";
    for (int b = 4; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    entries.push_back(MakeEntry(bits, "id"));
  }
  // Land in the fourth flush group, whose arrival completes a kTierFanin
  // group of equal runs, so the flush-triggered compaction merges all
  // four runs.
  entries.push_back(MakeEntry(ones + "0010", "id"));
  entries.push_back(MakeEntry(ones + "0110", "id"));
  for (const Entry& e : entries) {
    EXPECT_EQ(packed.Apply(e), model.Apply(e));
  }
  ASSERT_EQ(packed.run_count(), 1u);
  EXPECT_EQ(packed.GetAll(), model.GetAll());
  for (const std::string& bits : {ones + "0010", ones + "0110"}) {
    ASSERT_EQ(packed.Get(Key::FromBits(bits)).size(), 1u);
    EXPECT_EQ(packed.Get(Key::FromBits(bits))[0].key.bits(), bits);
  }

  // A fresh flush of short keys lands beside the merged run.
  for (int i = 16; i < 20; ++i) {
    std::string bits = "1";
    for (int b = 4; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    const Entry e = MakeEntry(bits, "id");
    EXPECT_EQ(packed.Apply(e), model.Apply(e));
  }
  ASSERT_EQ(packed.run_count(), 2u);
  EXPECT_EQ(packed.GetAll(), model.GetAll());

  // A full compaction folds the pair again with no data lost.
  packed.Compact();
  ASSERT_EQ(packed.run_count(), 1u);
  EXPECT_EQ(packed.GetAll(), model.GetAll());
}

TEST(SortedRunTest, FindSlotFindsRecordsAfterAnOverlongKey) {
  // One prefix chain of the longest keys: full-width keys and shorter
  // ones sharing 100 to 127 bits, each record rebuilt from the shared
  // bytes of its predecessor's key.
  const std::string zeros(kKeyBits, '0');
  const std::string z120 = zeros.substr(0, 120);
  std::vector<Entry> entries = {
      MakeEntry(zeros.substr(0, 100), "a", 3),
      MakeEntry(zeros, "a", 4),
      MakeEntry(zeros, "b", 5, /*deleted=*/true),
      MakeEntry(zeros.substr(0, kKeyBits - 1) + "1", "a", 6),
      MakeEntry(z120 + "1", "a", 7),
      MakeEntry(z120 + "1000000" + "1", "a", 8),
      MakeEntry(z120 + "11", "a", 9),
  };
  const SortedRun run = SortedRun::Build(EntryRunInput(entries));
  ASSERT_EQ(run.size(), entries.size());

  SortedRun::Cursor cursor;
  size_t i = 0;
  for (cursor.Seek(&run, Key()); cursor.valid(); cursor.Advance(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(cursor.view().ToEntry(), entries[i]) << "entry " << i;
  }
  EXPECT_EQ(i, entries.size());

  uint64_t version = 0;
  bool deleted = false;
  // Absent slots in between the present ones stay misses.
  EXPECT_FALSE(run.FindSlot({Key::FromBits(zeros.substr(0, 100)), "0"},
                            &version, &deleted));
  for (const Entry& e : entries) {
    ASSERT_TRUE(run.FindSlot({e.key, e.id}, &version, &deleted))
        << e.key.size() << "-bit key " << e.id;
    EXPECT_EQ(version, e.version);
    EXPECT_EQ(deleted, e.deleted);
  }
  EXPECT_FALSE(run.FindSlot({Key::FromBits(z120 + "111"), "a"}, &version,
                            &deleted));
}

TEST(SortedRunTest, RecordSizeIsTheBytesAppendRecordWrites) {
  // Keys that share 0 to 16 bytes with their predecessor, ids and
  // versions across varint widths, and a restart every three records.
  const std::string zeros(kKeyBits, '0');
  std::vector<Entry> entries = {
      MakeEntry("0", "a", 1),
      MakeEntry(zeros.substr(0, 100), "a", 300),
      MakeEntry(zeros, std::string(200, 'i'), 1),
      MakeEntry(zeros, std::string(201, 'i'), uint64_t{1} << 40, true),
      MakeEntry(zeros.substr(0, 120) + "1", "b", 2),
      MakeEntry("1", "c", 3),
      MakeEntry("11", "c", 4),
  };
  constexpr size_t kInterval = 3;
  size_t total = 0;
  Key prev;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i % kInterval == 0) prev = Key();
    std::string record;
    run_format::AppendRecord(&record, prev, EntryView(entries[i]));
    EXPECT_EQ(run_format::RecordSize(prev, EntryView(entries[i])),
              record.size())
        << "entry " << i;
    total += record.size();
    prev = entries[i].key;
  }
  const SortedRun run = SortedRun::Build(EntryRunInput(entries), kInterval);
  // Seven slots fit one 64-byte filter block.
  EXPECT_EQ(run.filter().bytes(), 64u);
  EXPECT_EQ(run.resident_bytes(),
            sizeof(SortedRun) + total + 3 * sizeof(uint32_t) + 64);
}

// --- Size-tiered compaction ------------------------------------------------

TEST(LocalStoreTierTest, TieredCompactionBoundsRunsAndKeepsData) {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 4;
  o.max_runs = 8;
  LocalStore store(o);
  for (int i = 0; i < 512; ++i) {
    std::string bits;
    for (int b = 8; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "id"));
  }
  EXPECT_LE(store.run_count(), 8u);
  EXPECT_EQ(store.live_size(), 512u);
  EXPECT_EQ(store.GetAllLive().size(), 512u);
}

TEST(LocalStoreTierTest, TieredWritesLessThanFullMerge) {
  LocalStoreOptions o;
  o.memtable_flush_threshold = 8;
  o.max_runs = 8;
  LocalStore store(o);
  // The full-merge baseline (DESIGN.md §6) rewrites every entry stored so
  // far each time a flush puts the run count past max_runs. The keys are
  // distinct, so its bytes follow from the flush sequence alone.
  uint64_t stored_bytes = 0;
  uint64_t full_merge_bytes = 0;
  size_t full_merge_runs = 0;
  for (int i = 0; i < 2048; ++i) {
    std::string bits;
    for (int b = 11; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    const Entry e = MakeEntry(bits, "id");
    store.Apply(e);
    stored_bytes += ApproxEntryBytes(e);
    if ((i + 1) % o.memtable_flush_threshold == 0 &&
        ++full_merge_runs > o.max_runs) {
      full_merge_bytes += stored_bytes;
      full_merge_runs = 1;
    }
  }
  const LocalStoreWriteStats& tiered = store.write_stats();
  const double full_merge_amplification =
      static_cast<double>(tiered.flushed_bytes + full_merge_bytes) /
      static_cast<double>(tiered.ingested_bytes);
  EXPECT_LT(tiered.WriteAmplification(), full_merge_amplification);
  EXPECT_GT(tiered.WriteAmplification(), 0.0);
}

TEST(LocalStoreTierTest, OverTheRunBoundTheNewestRunsFoldNotTheOldest) {
  // One large old run, then bulk-loaded runs of mixed sizes. No group of
  // kTierFanin runs forms (the 1,000-entry run outweighs kTierGrowth
  // times the three newer ones, and the 30-entry run outweighs it times
  // the 5-entry one), so the fifth run puts the store over max_runs: the
  // two newest runs (30 + 5 entries) fold; the 1,000-entry run is never
  // rewritten.
  LocalStoreOptions o;
  o.memtable_flush_threshold = 4;
  o.max_runs = 4;
  LocalStore store(o);
  int next = 0;
  auto bulk_load = [&store, &next](int n) {
    std::vector<Entry> batch;
    for (int i = 0; i < n; ++i, ++next) {
      std::string bits;
      for (int b = 11; b >= 0; --b) bits += ((next >> b) & 1) ? '1' : '0';
      batch.push_back(MakeEntry(bits, "id"));
    }
    ASSERT_EQ(store.BulkLoad(std::move(batch)), static_cast<size_t>(n));
  };
  for (int n : {1000, 40, 10, 30}) bulk_load(n);
  const std::vector<RunSummary> before = store.RunSummaries();
  ASSERT_EQ(before.size(), 4u);
  EXPECT_EQ(store.write_stats().compacted_entries, 0u);

  bulk_load(5);
  const std::vector<RunSummary> after = store.RunSummaries();
  ASSERT_EQ(after.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(after[i].run_id, before[i].run_id) << "run " << i;
    EXPECT_EQ(after[i].entry_count, before[i].entry_count) << "run " << i;
  }
  EXPECT_EQ(after[0].entry_count, 1000u);
  EXPECT_EQ(after[3].entry_count, 35u);
  EXPECT_EQ(store.write_stats().compacted_entries, 35u);
  EXPECT_EQ(store.write_stats().compactions, 1u);
  EXPECT_EQ(store.live_size(), 1085u);
}

// --- Compaction under churn: the full write-path property test -------------

TEST(LocalStoreChurnTest, InterleavedApplyBulkLoadExtractMatchesModel) {
  Rng rng(20260729);
  for (int round = 0; round < 6; ++round) {
    LocalStoreOptions options;
    options.memtable_flush_threshold = 1 + rng.NextBounded(12);
    options.max_runs = 2 + rng.NextBounded(8);
    LocalStore store(options);
    MapStoreModel model;

    auto random_entry = [&rng]() {
      Entry e;
      std::string bits;
      for (int b = 0; b < 6; ++b) bits += rng.NextBounded(2) ? '1' : '0';
      e.key = Key::FromBits(bits);
      e.id = "id" + std::to_string(rng.NextBounded(6));
      e.version = 1 + rng.NextBounded(16);
      e.deleted = rng.NextBounded(5) == 0;
      return e;
    };

    for (int op = 0; op < 600; ++op) {
      const uint64_t dice = rng.NextBounded(100);
      if (dice < 70) {
        Entry e = random_entry();
        ASSERT_EQ(store.Apply(e), model.Apply(e)) << "op " << op;
      } else if (dice < 85) {
        // Bulk batch (anti-entropy / ingest shape): may collide with
        // existing slots and itself.
        std::vector<Entry> batch;
        const uint64_t n = 1 + rng.NextBounded(24);
        for (uint64_t i = 0; i < n; ++i) {
          batch.push_back(random_entry());
        }
        store.BulkLoad(batch);
        for (const Entry& e : batch) model.Apply(e);
      } else if (dice < 95) {
        store.Flush();  // Triggers tier compaction.
      } else {
        std::string path;
        const uint64_t len = rng.NextBounded(3);
        for (uint64_t b = 0; b < len; ++b) {
          path += rng.NextBounded(2) ? '1' : '0';
        }
        auto removed_new = store.ExtractNotMatching(Key::FromBits(path));
        auto removed_old = model.ExtractNotMatching(Key::FromBits(path));
        ASSERT_EQ(removed_new, removed_old) << "extract at op " << op;
      }

      if (op % 151 == 0) {
        ASSERT_EQ(store.GetAll(), model.GetAll()) << "state at op " << op;
      }
    }

    EXPECT_LE(store.run_count(), options.Sanitized(nullptr).max_runs);
    EXPECT_EQ(store.live_size(), model.live_size());
    EXPECT_EQ(store.GetAll(), model.GetAll());
    EXPECT_EQ(store.total_size(), model.GetAll().size());

    for (int probe = 0; probe < 16; ++probe) {
      std::string lo, hi;
      for (int b = 0; b < 6; ++b) lo += rng.NextBounded(2) ? '1' : '0';
      for (int b = 0; b < 6; ++b) hi += rng.NextBounded(2) ? '1' : '0';
      if (lo > hi) std::swap(lo, hi);
      KeyRange range{Key::FromBits(lo), Key::FromBits(hi)};
      EXPECT_EQ(store.GetRange(range), model.GetRange(range));
    }
  }
}

// --- Entry codec -----------------------------------------------------------

TEST(EntryCodecTest, RoundTrip) {
  Entry e = MakeEntry("010101", "triple-7", 42, true);
  BufferWriter w;
  e.Encode(&w);
  EXPECT_EQ(w.size(), e.EncodedSize());
  BufferReader r(w.buffer());
  auto back = Entry::Decode(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(EntryCodecTest, VectorRoundTrip) {
  std::vector<Entry> entries = {MakeEntry("00", "a"),
                                MakeEntry("01", "b", 3),
                                MakeEntry("10", "c", 9, true)};
  BufferWriter w;
  EncodeEntries(entries, &w);
  BufferReader r(w.buffer());
  auto back = DecodeEntries(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ((*back)[i], entries[i]);
}

TEST(EntryCodecTest, StreamedEncodeIsByteIdentical) {
  std::vector<Entry> entries = {MakeEntry("00", "a"),
                                MakeEntry("01", "b", 3),
                                MakeEntry("10", "c", 9, true)};
  for (bool keyless : {false, true}) {
    BufferWriter materialized;
    EncodeEntries(entries, &materialized, keyless);
    // Streamed as a scan hands entries out: each view's id lives in a
    // buffer the next entry overwrites.
    BufferWriter streamed;
    EntryListWriter::Write(
        &streamed, keyless, [&entries](EntryListWriter* list) {
          std::string id;
          for (const Entry& e : entries) {
            id.assign(e.id);
            EntryView view(e);
            view.id = id;
            list->Add(view);
          }
        });
    EXPECT_EQ(streamed.buffer(), materialized.buffer()) << keyless;
  }
}

// A served list is encoded straight from the scan (DESIGN.md §6): the
// writer's one id copy grows once, and patching in a two-byte count moves
// the list inside the buffer. Nothing allocates per entry.
TEST(EntryCodecTest, ServedListDoesNotAllocatePerEntry) {
  LocalStore store(TinyEngine());
  for (int i = 0; i < 300; ++i) {
    std::string bits;
    for (int b = 8; b >= 0; --b) bits += ((i >> b) & 1) ? '1' : '0';
    store.Apply(MakeEntry(bits, "a-long-entry-id-past-the-sso-" +
                                    std::to_string(1000 + i)));
  }
  ASSERT_GE(store.run_count(), 1u);
  BufferWriter w;
  w.Reserve(64 * 1024);
  size_t listed = 0;
  const uint64_t allocs = CountCalls([&] {
    EntryListWriter::Write(
        &w, /*keyless=*/false, [&store, &listed](EntryListWriter* list) {
          store.ScanAll([list, &listed](const EntryView& e) {
            list->Add(e);
            ++listed;
            return true;
          });
        });
  });
  EXPECT_EQ(listed, 300u);
  EXPECT_LE(allocs, 1u) << "the list writer must not allocate per entry";
  BufferReader r(w.buffer());
  auto back = DecodeEntries(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, store.GetAll());
}

// The count is written last, over a one-byte placeholder: at every varint
// width it must come out as PutVarint would have written it up front,
// with the entries after it intact.
TEST(EntryCodecTest, PatchedCountAtEveryVarintWidth) {
  for (size_t n : {0, 1, 127, 128, 16383, 16384}) {
    std::vector<Entry> entries;
    entries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::string bits;
      for (int b = 15; b >= 0; --b) bits.push_back((i >> b) & 1 ? '1' : '0');
      entries.push_back(MakeEntry(bits, "t" + std::to_string(i), i + 1,
                                  i % 5 == 0));
    }
    for (bool keyless : {false, true}) {
      SCOPED_TRACE(testing::Message() << n << " entries, keyless "
                                      << keyless);
      BufferWriter materialized;
      EncodeEntries(entries, &materialized, keyless);
      BufferWriter streamed;
      BufferWriter count;
      count.PutVarint(n);
      streamed.PutRaw("head");
      EntryListWriter::Write(
          &streamed, keyless, [&entries](EntryListWriter* list) {
            for (const Entry& e : entries) list->Add(EntryView(e));
          });
      streamed.PutRaw("tail");
      const std::string& bytes = streamed.buffer();
      ASSERT_GE(bytes.size(), 8 + count.size());
      EXPECT_EQ(bytes.substr(0, 4), "head");
      EXPECT_EQ(bytes.substr(4, count.size()), count.buffer());
      EXPECT_EQ(bytes.substr(bytes.size() - 4), "tail");
      EXPECT_EQ(bytes.substr(4, bytes.size() - 8), materialized.buffer());

      BufferReader r(std::string_view(bytes).substr(4, bytes.size() - 8));
      auto back = DecodeEntries(&r, keyless);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(r.AtEnd());
      ASSERT_EQ(back->size(), n);
      for (size_t i = 0; i < n; ++i) {
        Entry want = entries[i];
        if (keyless) want.key = Key();
        ASSERT_EQ((*back)[i], want) << i;
      }
    }
  }
}

// Every sharing case of the front-coded list: keys of every width class
// in ascending, equal and descending order, and ids that are empty,
// equal, share a prefix, or run to 1 KB.
std::vector<Entry> FrontCodingCases() {
  Rng rng(77);
  std::string bits;
  for (size_t b = 0; b < kKeyBits; ++b) {
    bits.push_back(rng.NextBounded(2) == 0 ? '0' : '1');
  }
  std::string long_id;
  for (size_t i = 0; i < 1024; ++i) {
    long_id.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  std::vector<Entry> out;
  uint64_t version = 1;
  auto add = [&](size_t key_bits, std::string id) {
    const bool deleted = version % 3 == 0;
    out.push_back(
        MakeEntry(bits.substr(0, key_bits), std::move(id), version++, deleted));
  };
  for (size_t width : {0, 1, 7, 8, 64, 127, 128}) add(width, "");
  add(128, "");                         // Duplicate key, equal id.
  add(128, "o#17#title");               // Duplicate key, new id.
  add(128, "o#17#title");               // Equal id.
  add(128, "o#17#year");                // Shares "o#17#".
  add(128, long_id);                    // Shares nothing.
  add(128, long_id + "x");              // Shares 1 KB.
  add(128, long_id.substr(0, 512));     // Shorter than its prefix.
  for (size_t width : {127, 64, 8, 7, 1, 0}) add(width, "d");  // Descending.
  bits[3] = bits[3] == '0' ? '1' : '0';
  for (size_t width : {128, 9, 16}) add(width, "x");  // Shares under a byte.
  return out;
}

TEST(EntryCodecTest, FrontCodedListsRoundTrip) {
  const std::vector<Entry> entries = FrontCodingCases();
  for (bool keyless : {false, true}) {
    BufferWriter w;
    EncodeEntries(entries, &w, keyless);
    BufferReader r(w.buffer());
    auto back = DecodeEntries(&r, keyless);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    ASSERT_EQ(back->size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      Entry expected = entries[i];
      if (keyless) expected.key = Key();
      EXPECT_EQ((*back)[i], expected) << "entry " << i << " keyless "
                                      << keyless;
    }
  }
}

TEST(EntryCodecTest, FullWidthKeysNeverCodeLonger) {
  // So the Entry::EncodedSize budget of a batch-insert chunk bounds its
  // bytes on the wire: a list that shares nothing costs no more than the
  // uncoded entries, and one that shares costs less.
  Rng rng(5);
  std::vector<Entry> apart;
  std::vector<Entry> sharing;
  for (int i = 0; i < 50; ++i) {
    std::string bits;
    for (size_t b = 0; b < kKeyBits; ++b) {
      bits.push_back(rng.NextBounded(2) == 0 ? '0' : '1');
    }
    apart.push_back(MakeEntry(bits, std::string(1 + i % 3, 'a' + i % 26),
                              rng.NextBounded(1000)));
    sharing.push_back(MakeEntry(
        OpHash("a#year#" + std::to_string(1950 + i)).bits(),
        "a#pub" + std::to_string(i), 1));
  }
  auto sizes = [](const std::vector<Entry>& entries) {
    size_t uncoded = VarintLength(entries.size());
    for (const Entry& e : entries) uncoded += e.EncodedSize();
    BufferWriter keyed;
    EncodeEntries(entries, &keyed);
    BufferWriter keyless;
    EncodeEntries(entries, &keyless, /*keyless=*/true);
    EXPECT_LT(keyless.size(), keyed.size());
    return std::pair{keyed.size(), uncoded};
  };
  const auto [apart_coded, apart_uncoded] = sizes(apart);
  EXPECT_LE(apart_coded, apart_uncoded);
  const auto [sharing_coded, sharing_uncoded] = sizes(sharing);
  EXPECT_LT(sharing_coded, sharing_uncoded);
}

TEST(EntryCodecTest, CorruptKeyRejected) {
  BufferWriter w;
  w.PutString("01x1");  // Bad bit char.
  w.PutString("id");
  w.PutVarint(1);
  w.PutBool(false);
  BufferReader r(w.buffer());
  EXPECT_EQ(Entry::Decode(&r).status().code(), StatusCode::kCorruption);
}

TEST(EntryCodecTest, AdversarialEntryCountRejectedWithoutHugeReserve) {
  // A huge varint count must fail with Corruption in the decode loop, not
  // attempt a multi-exabyte vector reservation up front.
  BufferWriter w;
  w.PutVarint(0xFFFFFFFFFFFFFFFFull);
  BufferReader r(w.buffer());
  EXPECT_EQ(DecodeEntries(&r).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
