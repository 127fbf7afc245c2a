// Crash-recovery property tests for the disk backend: kill the store at
// every persistence point of a random workload, reopen, and check the
// recovered scan stream against an in-memory oracle of the acknowledged
// operations. Also the targeted torn-manifest and orphan-run cases.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pgrid/backend_disk.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"

namespace unistore {
namespace pgrid {
namespace {

using storage::MemEnv;

Entry MakeEntry(const std::string& keybits, const std::string& id,
                uint64_t version,
                bool deleted = false) {
  Entry e;
  e.key = Key::FromBits(keybits);
  e.id = id;
  e.version = version;
  e.deleted = deleted;
  return e;
}

LocalStoreOptions DiskOptions(MemEnv* env) {
  LocalStoreOptions o;
  o.backend = LocalStoreOptions::Backend::kDisk;
  o.data_dir = "db";
  o.env = env;
  o.memtable_flush_threshold = 8;
  o.block_bytes = 256;
  return o;
}

// The oracle: a plain map applying the same versioned-upsert rule
// (higher version replaces, ties and lower versions are ignored).
using Oracle = std::map<std::pair<std::string, std::string>, Entry>;

void OracleApply(Oracle* oracle, const Entry& e) {
  auto key = std::make_pair(e.key.bits(), e.id);
  auto it = oracle->find(key);
  if (it == oracle->end() || e.version > it->second.version) {
    (*oracle)[key] = e;
  }
}

std::vector<Entry> OracleEntries(const Oracle& oracle) {
  std::vector<Entry> out;
  out.reserve(oracle.size());
  for (const auto& [slot, e] : oracle) out.push_back(e);
  return out;
}

// One deterministic workload step (a single Apply or a BulkLoad batch).
std::vector<Entry> StepEntries(Rng* rng) {
  std::vector<Entry> entries;
  const bool bulk = rng->NextBounded(4) == 0;
  const size_t count = bulk ? 8 + rng->NextBounded(24) : 1;
  for (size_t i = 0; i < count; ++i) {
    std::string bits;
    for (int b = 0; b < 8; ++b) bits += rng->NextBounded(2) ? '1' : '0';
    entries.push_back(MakeEntry(
        bits, "id" + std::to_string(rng->NextBounded(4)),
        1 + rng->NextBounded(9), rng->NextBounded(6) == 0));
  }
  return entries;
}

// Drives `steps` workload steps against the store, maintaining two
// oracles:
//  - `fed`: newest-wins state over every entry ever handed to the store
//    (an upper bound on what recovery may surface — a step that wedged
//    mid-way may still have persisted its entries).
//  - `flushed`: state as of the last flush acknowledged with io_status()
//    OK and an empty memtable — the durability floor recovery must meet.
void RunWorkload(LocalStore* store, Oracle* fed, Oracle* flushed,
                 uint64_t seed, int steps) {
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    std::vector<Entry> entries = StepEntries(&rng);
    if (fed != nullptr) {
      for (const Entry& e : entries) OracleApply(fed, e);
    }
    if (entries.size() == 1) {
      store->Apply(entries[0]);
    } else {
      store->BulkLoad(std::move(entries));
    }
    const bool flush_step = step % 17 == 16;
    const bool compact_step = step % 53 == 52;
    if (flush_step) store->Flush();
    if (compact_step) store->Compact();
    if ((flush_step || compact_step) && store->io_status().ok() &&
        store->memtable_size() == 0 && flushed != nullptr) {
      // Until the first wedge, every fed entry was accepted; a clean
      // flush makes the whole accepted state durable.
      *flushed = *fed;
    }
  }
}

void ExpectSameEntries(const std::vector<Entry>& got,
                       const std::vector<Entry>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key.bits(), want[i].key.bits()) << label << " @" << i;
    EXPECT_EQ(got[i].id, want[i].id) << label << " @" << i;
    EXPECT_EQ(got[i].version, want[i].version) << label << " @" << i;
    EXPECT_EQ(got[i].deleted, want[i].deleted) << label << " @" << i;
  }
}

// The acknowledged-durability invariant after a crash at an arbitrary
// point: recovery may lose the unflushed tail, but must never invent,
// duplicate, or forward-date a slot beyond what was fed in, and must not
// lose anything the last acknowledged flush covered.
void CheckRecovered(const LocalStore& recovered, const Oracle& fed,
                    const Oracle& flushed, const std::string& label) {
  std::map<std::pair<std::string, std::string>, Entry> seen;
  for (const Entry& e : recovered.GetAll()) {
    auto slot = std::make_pair(e.key.bits(), e.id);
    ASSERT_EQ(seen.count(slot), 0u)
        << label << ": duplicate slot in recovered scan stream";
    seen.emplace(slot, e);
    auto it = fed.find(slot);
    ASSERT_NE(it, fed.end()) << label << ": recovered slot never fed";
    EXPECT_LE(e.version, it->second.version) << label;
  }
  for (const auto& [slot, e] : flushed) {
    auto it = seen.find(slot);
    ASSERT_NE(it, seen.end())
        << label << ": acknowledged slot lost (key=" << slot.first
        << " id=" << slot.second << ")";
    EXPECT_GE(it->second.version, e.version) << label;
  }
}

// Every run file in the data dir must be referenced by the recovered
// store (recovery deletes orphans and rewrites the manifest).
void CheckNoOrphans(MemEnv* env, const LocalStore& recovered,
                    const std::string& label) {
  auto listing = env->ListDir("db");
  ASSERT_TRUE(listing.ok()) << label;
  size_t run_files = 0;
  for (const std::string& name : listing.value()) {
    uint64_t fn = 0;
    if (storage::ParseRunFileName(name, &fn)) ++run_files;
  }
  EXPECT_EQ(run_files, recovered.run_count()) << label;
}

TEST(CrashRecoveryTest, CleanReopenMatchesOracle) {
  MemEnv env;
  Oracle fed;
  {
    LocalStore store(DiskOptions(&env));
    RunWorkload(&store, &fed, nullptr, /*seed=*/7, /*steps=*/400);
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
  }
  LocalStore reopened(DiskOptions(&env));
  ASSERT_TRUE(reopened.io_status().ok());
  // No faults ran: fed == accepted state, and the final flush made all of
  // it durable, so recovery is exact — byte-identical scan stream.
  ExpectSameEntries(reopened.GetAll(), OracleEntries(fed), "clean");
  CheckNoOrphans(&env, reopened, "clean");
}

// The kill-point matrix: run the workload once to count Env mutations,
// then re-run with the fault budget set to each kill point, simulate
// power loss, reopen, and check the acknowledged-durability invariant
// plus orphan cleanup. Covers crashes after run writes, mid-manifest
// append (the torn half-write of MemEnv's failing Append), and before
// either sync.
TEST(CrashRecoveryTest, KillPointSweep) {
  int64_t total_ops = 0;
  {
    MemEnv env;
    LocalStore store(DiskOptions(&env));
    Oracle fed;
    RunWorkload(&store, &fed, nullptr, /*seed=*/11, /*steps=*/120);
    ASSERT_TRUE(store.io_status().ok());
    total_ops = env.mutation_ops();
  }
  ASSERT_GT(total_ops, 50);

  // Every kill point near the start (directory + first manifest + first
  // runs), then a prime stride across the rest; bench_durable_store
  // sweeps the full matrix.
  for (int64_t kill = 0; kill <= total_ops;
       kill = kill < 40 ? kill + 1 : kill + 7) {
    MemEnv env;
    Oracle fed;
    Oracle flushed;
    {
      LocalStore store(DiskOptions(&env));
      env.set_fail_after(kill);
      RunWorkload(&store, &fed, &flushed, /*seed=*/11, /*steps=*/120);
    }
    env.SimulateCrash();
    LocalStore recovered(DiskOptions(&env));
    const std::string label = "kill=" + std::to_string(kill);
    ASSERT_TRUE(recovered.io_status().ok())
        << label << ": " << recovered.io_status().message();
    CheckRecovered(recovered, fed, flushed, label);
    CheckNoOrphans(&env, recovered, label);

    // Recovery is idempotent: a second reopen sees the identical stream.
    std::vector<Entry> first = recovered.GetAll();
    LocalStore again(DiskOptions(&env));
    ASSERT_TRUE(again.io_status().ok()) << label;
    ExpectSameEntries(again.GetAll(), first, "re-reopen " + label);
  }
}

// Torn final manifest record: everything before the tear recovers, the
// tail is discarded, and the rewritten manifest is clean.
TEST(CrashRecoveryTest, TornManifestTailIsDiscarded) {
  MemEnv env;
  Oracle fed;
  {
    LocalStore store(DiskOptions(&env));
    RunWorkload(&store, &fed, nullptr, /*seed=*/23, /*steps=*/200);
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
  }
  // Garbage half-record at the manifest tail, synced (the tear survives
  // the crash).
  {
    auto file = env.NewWritableFile("db/MANIFEST", /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(std::string("\x40\x00\x00\x00torn", 8))
                    .ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  LocalStore recovered(DiskOptions(&env));
  ASSERT_TRUE(recovered.io_status().ok());
  ExpectSameEntries(recovered.GetAll(), OracleEntries(fed), "torn tail");
  // Recovery rewrote the manifest: a further reopen decodes it cleanly.
  LocalStore again(DiskOptions(&env));
  ASSERT_TRUE(again.io_status().ok());
  ExpectSameEntries(again.GetAll(), OracleEntries(fed), "rewritten");
  CheckNoOrphans(&env, again, "rewritten");
}

// A synced run file that never reached the manifest (crash between the
// run write and the manifest append) is an orphan: recovery deletes it
// and serves exactly the acknowledged state.
TEST(CrashRecoveryTest, OrphanRunFromUnacknowledgedFlush) {
  // Pass 1: measure where the final flush's manifest append lands.
  int64_t flush_start = 0;
  int64_t flush_end = 0;
  auto drive = [](LocalStore* store, Oracle* fed, Oracle* flushed) {
    RunWorkload(store, fed, flushed, /*seed=*/31, /*steps=*/100);
    store->Flush();
    // Stay under memtable_flush_threshold (8) so these entries sit in the
    // memtable until the explicit Flush below — the one we kill.
    for (int i = 0; i < 5; ++i) {
      Entry e = MakeEntry("0000111" + std::to_string(i % 2), "fresh", 100 + i);
      if (fed != nullptr) OracleApply(fed, e);
      store->Apply(e);
    }
  };
  {
    MemEnv env;
    LocalStore store(DiskOptions(&env));
    drive(&store, nullptr, nullptr);
    flush_start = env.mutation_ops();
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
    flush_end = env.mutation_ops();
  }
  ASSERT_GT(flush_end, flush_start + 2);

  // Pass 2: kill at every point inside the final flush. Early points die
  // during the run-file write (partial file, no manifest record); late
  // points die at the manifest append/sync (run complete but possibly
  // unacknowledged). All must recover with no orphans and at least the
  // pre-tail acknowledged state.
  for (int64_t kill = flush_start; kill < flush_end; ++kill) {
    MemEnv env;
    Oracle fed;
    Oracle flushed;
    {
      LocalStore store(DiskOptions(&env));
      drive(&store, &fed, &flushed);
      env.set_fail_after(kill - env.mutation_ops());
      // Most kill points wedge the store; ones landing on the best-effort
      // run-file deletions after a compaction merge do not (delete
      // failures only leave orphans for the next recovery to reclaim).
      store.Flush();
    }
    env.SimulateCrash();
    LocalStore recovered(DiskOptions(&env));
    const std::string label = "kill=" + std::to_string(kill);
    ASSERT_TRUE(recovered.io_status().ok()) << label;
    CheckRecovered(recovered, fed, flushed, label);
    CheckNoOrphans(&env, recovered, label);
  }
}

// Every file of the data directory, by name, with its bytes.
std::map<std::string, std::string> DirContents(MemEnv* env) {
  std::map<std::string, std::string> out;
  auto listing = env->ListDir("db");
  EXPECT_TRUE(listing.ok());
  if (!listing.ok()) return out;
  for (const std::string& name : listing.value()) {
    const std::string path = "db/" + name;
    auto size = env->FileSize(path);
    auto file = env->NewRandomAccessFile(path);
    EXPECT_TRUE(size.ok() && file.ok()) << path;
    if (!size.ok() || !file.ok()) continue;
    EXPECT_TRUE((*file)->Read(0, *size, &out[name]).ok()) << path;
  }
  return out;
}

// A run file whose header names another record format is not read as this
// one: recovery refuses it, so the store wedges and serves nothing, and
// since the manifest rewrite and the orphan cleanup run only after every
// run has opened, no file is touched.
TEST(CrashRecoveryTest, ForeignRunFormatWedgesWithoutTouchingFiles) {
  MemEnv env;
  Oracle fed;
  {
    LocalStore store(DiskOptions(&env));
    RunWorkload(&store, &fed, nullptr, /*seed=*/11, /*steps=*/200);
    store.Flush();
    ASSERT_TRUE(store.io_status().ok());
    ASSERT_GT(store.run_count(), 0u);
  }
  std::map<std::string, std::string> files = DirContents(&env);
  std::string run_name;
  for (const auto& [name, bytes] : files) {
    uint64_t fn = 0;
    if (storage::ParseRunFileName(name, &fn)) run_name = name;
  }
  ASSERT_FALSE(run_name.empty());
  // The header is [u32 magic][u32 format], little-endian. Version 2 is
  // the format before packed keys; version 1 the one before it.
  std::string& run = files[run_name];
  ASSERT_EQ(run.substr(4, 4),
            std::string(1, static_cast<char>(storage::kRunFormatVersion)) +
                std::string(3, '\0'));
  for (const char foreign : {'\x02', '\x01'}) {
    SCOPED_TRACE("format version " + std::to_string(foreign));
    run[4] = foreign;
    {
      auto out = env.NewWritableFile("db/" + run_name, /*truncate=*/true);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE((*out)->Append(run).ok());
      ASSERT_TRUE((*out)->Sync().ok());
      ASSERT_TRUE((*out)->Close().ok());
    }

    LocalStore reopened(DiskOptions(&env));
    EXPECT_EQ(reopened.io_status().code(), StatusCode::kCorruption);
    EXPECT_NE(reopened.io_status().message().find(run_name),
              std::string::npos)
        << reopened.io_status().message();
    EXPECT_EQ(reopened.total_size(), 0u);
    EXPECT_EQ(DirContents(&env), files);
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
