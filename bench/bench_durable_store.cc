// Durable-storage benchmark: the disk-backed LocalStore engine against
// the in-memory engine (DESIGN.md § Durable storage backend).
//
// Three measurements, each with an acceptance gate:
//  1. Warm-cache scan throughput at 1M entries — the disk engine reads
//     prefix-compressed blocks through the LRU block cache; the gate is a
//     median disk/memory full-scan rate ratio >= 0.5 over interleaved
//     scan pairs.
//  2. Recovery fidelity — a 200k-entry flushed workload closed and
//     reopened must replay byte-identically (stream checksum equality).
//  3. Crash matrix — a mixed Apply/BulkLoad/Flush/compaction workload is
//     killed at EVERY Env mutation point (run-file writes, manifest
//     appends, syncs, deletes), power-loss is simulated, and recovery
//     must surface no invented, duplicate, or forward-dated slot, lose no
//     acknowledged flush, and leave no orphan run file. The gate is zero
//     violations across the full matrix.
//
// Runs against MemEnv: hermetic, deterministic, and the fault-injection
// hooks are what make the full kill matrix sweepable in seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "pgrid/backend_disk.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"
#include "pgrid/ophash.h"
#include "pgrid/storage_backend.h"

using namespace unistore;

namespace {

using pgrid::storage::MemEnv;

pgrid::Entry MakeEntry(uint64_t i) {
  pgrid::Entry e;
  std::string value = "k" + std::to_string(i * 2654435761u) + "-" +
                      std::to_string(i);
  e.key = pgrid::OpHash(value);
  e.id = "a#id" + std::to_string(i);
  e.version = 1 + (i % 3);
  return e;
}

pgrid::LocalStoreOptions DiskOptions(MemEnv* env, size_t flush_threshold) {
  pgrid::LocalStoreOptions o;
  o.backend = pgrid::LocalStoreOptions::Backend::kDisk;
  o.data_dir = "db";
  o.env = env;
  o.memtable_flush_threshold = flush_threshold;
  o.block_cache_bytes = 256u << 20;  // Warm-cache posture: everything fits.
  return o;
}

double TimedScan(pgrid::LocalStore* store, uint64_t* visited) {
  uint64_t sink = 0;
  uint64_t count = 0;
  const auto t0 = std::chrono::steady_clock::now();
  store->ScanAllLive([&sink, &count](const pgrid::EntryView& e) {
    sink += e.version;
    ++count;
    return true;
  });
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  *visited = count;
  return std::chrono::duration<double>(t1 - t0).count();
}

// --- 1. Warm-cache scan throughput -----------------------------------------

// Memory and disk scans alternate pair by pair, each pair in the other
// order from the last, so host noise (frequency scaling, neighbours) lands
// on both sides of a ratio. The gate reads the median of the pair ratios.
constexpr int kScanPairs = 11;

double g_scan_ratio = 0;
double g_scan_ratio_iqr = 0;

// The `q` quantile of `v` (0 <= q <= 1), interpolated between ranks.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  if (lo + 1 >= v.size()) return v[lo];
  return v[lo] + (at - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

void RunScanThroughput() {
  bench::Banner(
      "D1 / disk scan throughput",
      "Full scans over 1M entries: disk-backed runs (prefix-compressed "
      "blocks through the LRU cache, warm) vs the in-memory engine, "
      "interleaved in pairs. Gate: median ratio >= 0.5x.");
  constexpr size_t kEntries = 1000000;
  std::vector<pgrid::Entry> entries;
  entries.reserve(kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    entries.push_back(MakeEntry(static_cast<uint64_t>(i)));
  }
  auto build = [&entries](pgrid::LocalStore* store) {
    const auto t0 = std::chrono::steady_clock::now();
    store->BulkLoad(entries);
    store->Compact();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  pgrid::LocalStoreOptions memory_options;
  memory_options.memtable_flush_threshold = 4096;
  pgrid::LocalStore memory(memory_options);
  const double memory_build = build(&memory);
  MemEnv env;
  pgrid::LocalStore disk(DiskOptions(&env, 4096));
  const double disk_build = build(&disk);
  entries.clear();
  entries.shrink_to_fit();

  uint64_t visited = 0;
  TimedScan(&disk, &visited);  // Warm the block cache (untimed).
  std::vector<double> memory_rates;
  std::vector<double> disk_rates;
  std::vector<double> ratios;
  for (int pair = 0; pair < kScanPairs; ++pair) {
    double memory_s = 0;
    double disk_s = 0;
    if (pair % 2 == 0) {
      memory_s = TimedScan(&memory, &visited);
      disk_s = TimedScan(&disk, &visited);
    } else {
      disk_s = TimedScan(&disk, &visited);
      memory_s = TimedScan(&memory, &visited);
    }
    memory_rates.push_back(static_cast<double>(visited) / memory_s);
    disk_rates.push_back(static_cast<double>(visited) / disk_s);
    ratios.push_back(memory_s / disk_s);
  }

  const auto& cache =
      static_cast<const pgrid::DiskBackend&>(disk.backend()).block_cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  bench::Table table({"engine", "build s", "median scan Me/s", "cache hit %"});
  table.AddRow({"memory", bench::Fmt("%.2f", memory_build),
                bench::Fmt("%.1f", Quantile(memory_rates, 0.5) / 1e6), "-"});
  table.AddRow(
      {"disk", bench::Fmt("%.2f", disk_build),
       bench::Fmt("%.1f", Quantile(disk_rates, 0.5) / 1e6),
       bench::Fmt("%.1f", lookups > 0 ? 100.0 *
                                            static_cast<double>(cache.hits()) /
                                            lookups
                                      : 0)});
  table.Print();
  g_scan_ratio = Quantile(ratios, 0.5);
  g_scan_ratio_iqr = Quantile(ratios, 0.75) - Quantile(ratios, 0.25);
  std::printf(
      "disk/memory warm-cache scan ratio: median %.2fx over %d pairs, "
      "quartiles %.2f..%.2f (gate: median >= 0.5x)\n",
      g_scan_ratio, kScanPairs, Quantile(ratios, 0.25),
      Quantile(ratios, 0.75));
}

// --- 2. Recovery fidelity ---------------------------------------------------

bool g_recovery_identical = false;

void RunRecoveryFidelity() {
  bench::Banner(
      "D2 / recovery fidelity",
      "200k entries through the write path (flushes + tiered compaction), "
      "clean shutdown, reopen from manifest + run files. Gate: the "
      "recovered scan stream is byte-identical.");
  constexpr size_t kEntries = 200000;
  MemEnv env;
  bench::StreamChecksum before;
  double close_build = 0;
  {
    pgrid::LocalStore store(DiskOptions(&env, 2048));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pgrid::Entry> batch;
    for (size_t i = 0; i < kEntries; ++i) {
      if (i % 3 == 0) {
        batch.push_back(MakeEntry(static_cast<uint64_t>(i)));
        if (batch.size() == 1024) {
          store.BulkLoad(std::move(batch));
          batch.clear();
        }
      } else {
        store.Apply(MakeEntry(static_cast<uint64_t>(i)));
      }
    }
    store.BulkLoad(std::move(batch));
    store.Flush();
    close_build =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!store.io_status().ok()) {
      std::printf("!! workload wedged: %s\n",
                  store.io_status().ToString().c_str());
      return;
    }
    store.ScanAll([&before](const pgrid::EntryView& e) {
      before.Add(e);
      return true;
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  pgrid::LocalStore recovered(DiskOptions(&env, 2048));
  const double reopen =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  bench::StreamChecksum after;
  recovered.ScanAll([&after](const pgrid::EntryView& e) {
    after.Add(e);
    return true;
  });
  g_recovery_identical = recovered.io_status().ok() && after == before;
  std::printf(
      "build+close %.2fs, reopen %.3fs, %llu slots, byte-identical: %s\n",
      close_build, reopen, static_cast<unsigned long long>(after.count),
      g_recovery_identical ? "yes" : "NO");
}

// --- 3. Crash matrix --------------------------------------------------------

using Oracle = std::map<std::pair<std::string, std::string>, pgrid::Entry>;

void OracleApply(Oracle* oracle, const pgrid::Entry& e) {
  auto key = std::make_pair(e.key.bits(), e.id);
  auto it = oracle->find(key);
  if (it == oracle->end() || e.version > it->second.version) {
    (*oracle)[key] = e;
  }
}

// Mixed workload step: mostly single Applies, occasional BulkLoad bursts,
// periodic flushes and compactions (same shape as the crash-recovery
// property test, smaller keys so slots actually collide).
void RunCrashWorkload(pgrid::LocalStore* store, Oracle* fed, Oracle* flushed,
                      uint64_t seed, int steps) {
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    std::vector<pgrid::Entry> entries;
    const bool bulk = rng.NextBounded(4) == 0;
    const size_t count = bulk ? 8 + rng.NextBounded(24) : 1;
    for (size_t i = 0; i < count; ++i) {
      std::string bits;
      for (int b = 0; b < 8; ++b) bits += rng.NextBounded(2) ? '1' : '0';
      pgrid::Entry e;
      e.key = pgrid::Key::FromBits(bits);
      e.id = "id" + std::to_string(rng.NextBounded(4));
      e.version = 1 + rng.NextBounded(9);
      e.deleted = rng.NextBounded(6) == 0;
      entries.push_back(std::move(e));
    }
    if (fed != nullptr) {
      for (const auto& e : entries) OracleApply(fed, e);
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
      *flushed = *fed;
    }
  }
}

// Returns a violation description, or "" if the recovered store satisfies
// the acknowledged-durability invariant and has no orphan run files.
std::string CheckRecovered(MemEnv* env, const pgrid::LocalStore& recovered,
                           const Oracle& fed, const Oracle& flushed) {
  Oracle seen;
  for (const pgrid::Entry& e : recovered.GetAll()) {
    auto slot = std::make_pair(e.key.bits(), e.id);
    if (seen.count(slot) != 0) return "duplicate slot";
    seen.emplace(slot, e);
    auto it = fed.find(slot);
    if (it == fed.end()) return "recovered slot never fed";
    if (e.version > it->second.version) return "forward-dated slot";
  }
  for (const auto& [slot, e] : flushed) {
    auto it = seen.find(slot);
    if (it == seen.end()) return "acknowledged slot lost";
    if (it->second.version < e.version) return "acknowledged version lost";
  }
  auto listing = env->ListDir("db");
  if (!listing.ok()) return "cannot list data dir";
  size_t run_files = 0;
  for (const std::string& name : listing.value()) {
    uint64_t fn = 0;
    if (pgrid::storage::ParseRunFileName(name, &fn)) ++run_files;
  }
  if (run_files != recovered.run_count()) return "orphan run file";
  return "";
}

uint64_t g_crash_violations = 0;
uint64_t g_crash_points = 0;

void RunCrashMatrix() {
  bench::Banner(
      "D3 / crash matrix",
      "Kill the store at every Env mutation point of a mixed workload, "
      "simulate power loss, reopen. Gate: zero durability violations and "
      "zero orphan run files across the full matrix.");
  constexpr uint64_t kSeed = 1037;
  constexpr int kSteps = 90;
  int64_t total_ops = 0;
  {
    MemEnv env;
    pgrid::LocalStore store(DiskOptions(&env, 8));
    RunCrashWorkload(&store, nullptr, nullptr, kSeed, kSteps);
    if (!store.io_status().ok()) {
      std::printf("!! fault-free workload wedged\n");
      g_crash_violations = 1;
      return;
    }
    total_ops = env.mutation_ops();
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t kill = 0; kill <= total_ops; ++kill) {
    MemEnv env;
    Oracle fed;
    Oracle flushed;
    {
      pgrid::LocalStore store(DiskOptions(&env, 8));
      env.set_fail_after(kill);
      RunCrashWorkload(&store, &fed, &flushed, kSeed, kSteps);
    }
    env.SimulateCrash();
    pgrid::LocalStore recovered(DiskOptions(&env, 8));
    ++g_crash_points;
    std::string violation;
    if (!recovered.io_status().ok()) {
      violation = "recovery failed: " + recovered.io_status().ToString();
    } else {
      violation = CheckRecovered(&env, recovered, fed, flushed);
    }
    if (!violation.empty()) {
      ++g_crash_violations;
      if (g_crash_violations <= 5) {
        std::printf("!! kill=%lld: %s\n", static_cast<long long>(kill),
                    violation.c_str());
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "%llu kill points in %.1fs (%.0f recoveries/s), violations: %llu\n",
      static_cast<unsigned long long>(g_crash_points), seconds,
      static_cast<double>(g_crash_points) / (seconds > 0 ? seconds : 1e-9),
      static_cast<unsigned long long>(g_crash_violations));
}

// --- google-benchmark micro kernels ----------------------------------------

constexpr size_t kBmEntries = 100000;

const std::vector<pgrid::Entry>& BmEntries() {
  static const std::vector<pgrid::Entry>* entries = [] {
    auto* v = new std::vector<pgrid::Entry>();
    v->reserve(kBmEntries);
    for (size_t i = 0; i < kBmEntries; ++i) {
      v->push_back(MakeEntry(static_cast<uint64_t>(i)));
    }
    return v;
  }();
  return *entries;
}

void BM_DiskScanWarm(benchmark::State& state) {
  MemEnv env;
  pgrid::LocalStore store(DiskOptions(&env, 4096));
  store.BulkLoad(BmEntries());
  store.Compact();
  uint64_t visited = 0;
  for (auto _ : state) {
    store.ScanAllLive([&visited](const pgrid::EntryView& e) {
      benchmark::DoNotOptimize(e.version);
      ++visited;
      return true;
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_DiskScanWarm);

void BM_MemoryScan(benchmark::State& state) {
  pgrid::LocalStoreOptions o;
  o.memtable_flush_threshold = 4096;
  pgrid::LocalStore store(o);
  store.BulkLoad(BmEntries());
  store.Compact();
  uint64_t visited = 0;
  for (auto _ : state) {
    store.ScanAllLive([&visited](const pgrid::EntryView& e) {
      benchmark::DoNotOptimize(e.version);
      ++visited;
      return true;
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_MemoryScan);

void BM_DiskReopen(benchmark::State& state) {
  MemEnv env;
  {
    pgrid::LocalStore store(DiskOptions(&env, 4096));
    store.BulkLoad(BmEntries());
    store.Flush();
  }
  for (auto _ : state) {
    pgrid::LocalStore recovered(DiskOptions(&env, 4096));
    benchmark::DoNotOptimize(recovered.run_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DiskReopen);

}  // namespace

int main(int argc, char** argv) {
  RunScanThroughput();
  RunRecoveryFidelity();
  RunCrashMatrix();

  bench::GateJson gates;
  gates.Add("disk_scan_ratio_1m_warm", g_scan_ratio);
  gates.Add("disk_scan_ratio_1m_warm_iqr", g_scan_ratio_iqr);
  gates.Add("recovery_byte_identical", g_recovery_identical ? 1 : 0);
  gates.Add("crash_matrix_points", static_cast<double>(g_crash_points));
  gates.Add("crash_matrix_violations",
            static_cast<double>(g_crash_violations));
  gates.WriteTo("BENCH_durable_store_gates.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (g_scan_ratio < 0.5) {
    std::printf("FAIL: median disk scan ratio %.2fx below the 0.5x gate\n",
                g_scan_ratio);
    return 1;
  }
  if (!g_recovery_identical) {
    std::printf("FAIL: recovered scan stream differs\n");
    return 1;
  }
  if (g_crash_violations != 0) {
    std::printf("FAIL: %llu crash-matrix violations\n",
                static_cast<unsigned long long>(g_crash_violations));
    return 1;
  }
  return 0;
}
