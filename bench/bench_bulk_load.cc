// Storage write-path benchmark: the size-tiered, prefix-compressed,
// bulk-loading LocalStore engine (DESIGN.md § Local storage engine).
//
// Four acceptance gates, encoded in the exit code:
//   1. BulkLoad ingests >= 5x entries/s vs per-Apply inserts at 1M
//      entries, in the median of kIngestRepeats runs.
//   2. Measured write amplification under sustained per-Apply inserts is
//      strictly below the full-merge compaction baseline.
//   3. Prefix-compressed runs shrink the resident footprint of a
//      shared-prefix dataset by >= 25% against the same entries'
//      uncompressed footprint (ApproxEntryBytes summed over the store).
//   4. Scan streams are byte-identical across the {memtable path,
//      bulk-load path}, and the visitor read path performs zero heap
//      allocations on either.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/alloc_hook.h"
#include "common/rng.h"
#include "pgrid/local_store.h"
#include "pgrid/sorted_run.h"

using namespace unistore;

namespace {

// Shared-prefix dataset: every key lives under one 24-bit subtree (the
// shape of a peer's store after trie partitioning), ids share the "a#id"
// index prefix — what the prefix truncation is built for.
std::vector<pgrid::Entry> MakeDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<pgrid::Entry> entries;
  entries.reserve(n);
  const std::string shared_prefix = "010110011010010110100101";  // 24 bits.
  for (size_t i = 0; i < n; ++i) {
    std::string bits = shared_prefix;
    bits.reserve(128);
    for (int b = 0; b < 104; ++b) bits += rng.NextBounded(2) ? '1' : '0';
    pgrid::Entry e;
    e.key = pgrid::Key::FromBits(bits);
    e.id = "a#id" + std::to_string(i);
    e.version = 1 + (i % 3);
    e.deleted = i % 97 == 0;  // Sprinkle tombstones.
    entries.push_back(std::move(e));
  }
  return entries;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

using Checksum = bench::StreamChecksum;

pgrid::LocalStoreOptions IngestPosture() {
  pgrid::LocalStoreOptions o;
  o.memtable_flush_threshold = 4096;
  o.max_runs = pgrid::LocalStoreOptions::kMaxRuns;
  o.tier_fanin = 4;
  o.tier_growth = 8;
  return o;
}

bool g_bulk_gate = true;
bool g_wa_gate = true;
bool g_compress_gate = true;
bool g_identical_gate = true;
bool g_alloc_gate = true;
bench::GateJson g_gates;

// --- Gate 1: bulk ingest throughput ----------------------------------------

// A single wall-time ratio swings by +-10% on a shared host, enough to
// flip a 5x gate, so the 1M comparison runs this many times and the gate
// reads the median ratio.
constexpr int kIngestRepeats = 5;

void RunIngestThroughput() {
  bench::Banner(
      "S2a / bulk ingest throughput",
      "LocalStore::BulkLoad (sorted-run builder, memtable bypassed) vs "
      "per-Apply inserts; gate: >= 5x entries/s at 1M entries, median of "
      "5 runs.");
  bench::Table table({"entries", "path", "seconds", "Mentries/s", "runs",
                      "speedup"});
  std::vector<double> speedups_1m;
  for (size_t n : {100000, 1000000}) {
    auto entries = MakeDataset(n, 1234);
    const int repeats = n == 1000000 ? kIngestRepeats : 1;
    for (int rep = 0; rep < repeats; ++rep) {
      double apply_s = 0;
      double bulk_s = 0;
      {
        pgrid::LocalStore store(IngestPosture());
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto& e : entries) store.Apply(e);
        apply_s = Seconds(t0);
        table.AddRow({std::to_string(n), "per-Apply",
                      bench::Fmt("%.2f", apply_s),
                      bench::Fmt("%.2f",
                                 static_cast<double>(n) / apply_s / 1e6),
                      bench::FmtInt(store.run_count()), ""});
      }
      {
        pgrid::LocalStore store(IngestPosture());
        // Batches of 128k: the anti-entropy / triple-ingest arrival shape.
        // BulkLoad takes ownership of its batch (a decoded wire batch is
        // handed over, not borrowed), so the slices move.
        auto owned = entries;  // Untimed copy; `entries` stays intact.
        const size_t kBatch = 131072;
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < owned.size(); i += kBatch) {
          const size_t end = std::min(owned.size(), i + kBatch);
          store.BulkLoad(std::vector<pgrid::Entry>(
              std::make_move_iterator(owned.begin() + i),
              std::make_move_iterator(owned.begin() + end)));
        }
        bulk_s = Seconds(t0);
        const double speedup = apply_s / bulk_s;
        table.AddRow({std::to_string(n), "BulkLoad",
                      bench::Fmt("%.2f", bulk_s),
                      bench::Fmt("%.2f",
                                 static_cast<double>(n) / bulk_s / 1e6),
                      bench::FmtInt(store.run_count()),
                      bench::Fmt("%.1fx", speedup)});
        if (n == 1000000) speedups_1m.push_back(speedup);
      }
    }
  }
  table.Print();
  std::sort(speedups_1m.begin(), speedups_1m.end());
  const double median = speedups_1m[speedups_1m.size() / 2];
  g_bulk_gate = median >= 5.0;
  g_gates.Add("bulk_ingest_speedup_1m", median);
  std::printf("median 1M speedup over %d runs: %.1fx (gate: >= 5x)\n",
              kIngestRepeats, median);
}

// --- Gate 2: write amplification -------------------------------------------

void RunWriteAmplification() {
  bench::Banner(
      "S2b / write amplification",
      "Sustained per-Apply inserts under the size-tiered policy vs the "
      "full-merge baseline; gate: tiered WA strictly below full-merge.");
  bench::Table table({"entries", "policy", "flush MB", "compact MB",
                      "compactions", "write amp"});
  const size_t n = 200000;
  auto entries = MakeDataset(n, 77);
  double tiered_wa = 0;
  double full_wa = 0;
  for (bool tiered : {true, false}) {
    pgrid::LocalStoreOptions o;
    o.memtable_flush_threshold = 512;
    o.max_runs = pgrid::LocalStoreOptions::kMaxRuns;
    o.tier_fanin = 4;
    o.tier_growth = 4;
    o.compaction = tiered
                       ? pgrid::LocalStoreOptions::CompactionPolicy::kTiered
                       : pgrid::LocalStoreOptions::CompactionPolicy::kFullMerge;
    pgrid::LocalStore store(o);
    for (const auto& e : entries) store.Apply(e);
    const auto& stats = store.write_stats();
    const double wa = stats.WriteAmplification();
    (tiered ? tiered_wa : full_wa) = wa;
    table.AddRow({std::to_string(n), tiered ? "size-tiered" : "full-merge",
                  bench::FmtInt(stats.flushed_bytes >> 20),
                  bench::FmtInt(stats.compacted_bytes >> 20),
                  bench::FmtInt(stats.compactions),
                  bench::Fmt("%.1fx", wa)});
  }
  table.Print();
  g_wa_gate = tiered_wa > 0 && tiered_wa < full_wa;
  g_gates.Add("write_amp_tiered", tiered_wa);
  g_gates.Add("write_amp_full_merge", full_wa);
  std::printf("tiered %.1fx vs full-merge %.1fx (gate: strictly below)\n",
              tiered_wa, full_wa);
}

// --- Gate 3: prefix compression --------------------------------------------

void RunCompressionSavings() {
  bench::Banner(
      "S2c / prefix-compressed runs",
      "Resident bytes of the shared-prefix dataset in prefix-compressed "
      "runs vs the same entries' uncompressed footprint (ApproxEntryBytes "
      "per entry); gate: >= 25% reduction.");
  bench::Table table({"entries", "format", "resident MB", "reduction"});
  const size_t n = 200000;
  pgrid::LocalStore store(IngestPosture());
  store.BulkLoad(MakeDataset(n, 55));
  store.Compact();
  size_t uncompressed_bytes = 0;
  store.ScanAll([&uncompressed_bytes](const pgrid::EntryView& e) {
    uncompressed_bytes += pgrid::ApproxEntryBytes(e);
    return true;
  });
  const size_t packed_bytes = store.resident_bytes();
  const double reduction =
      100.0 * (1.0 - static_cast<double>(packed_bytes) /
                         static_cast<double>(uncompressed_bytes));
  table.AddRow({std::to_string(n), "uncompressed",
                bench::Fmt("%.1f", static_cast<double>(uncompressed_bytes) /
                                       1048576.0),
                ""});
  table.AddRow({std::to_string(n), "compressed",
                bench::Fmt("%.1f", static_cast<double>(packed_bytes) /
                                       1048576.0),
                bench::Fmt("%.1f%%", reduction)});
  table.Print();
  g_compress_gate = reduction >= 25.0;
  g_gates.Add("resident_byte_reduction_pct", reduction);
}

// --- Gate 4: stream identity + zero allocations ----------------------------

void RunStreamIdentity() {
  bench::Banner(
      "S2d / stream identity",
      "ScanAll streams across the {memtable path, bulk path}; gate: "
      "byte-identical checksums, zero scan allocations.");
  bench::Table table(
      {"config", "entries seen", "checksum", "scan allocs"});
  const size_t n = 100000;
  auto entries = MakeDataset(n, 99);
  Checksum reference;
  bool first = true;
  for (bool bulk : {false, true}) {
    pgrid::LocalStore store(IngestPosture());
    if (bulk) {
      const size_t kBatch = 32768;
      for (size_t i = 0; i < entries.size(); i += kBatch) {
        const size_t end = std::min(entries.size(), i + kBatch);
        store.BulkLoad(std::vector<pgrid::Entry>(entries.begin() + i,
                                                 entries.begin() + end));
      }
    } else {
      for (const auto& e : entries) store.Apply(e);
    }
    Checksum sum;
    const uint64_t allocs = alloc_hook::CountCalls([&] {
      store.ScanAll([&sum](const pgrid::EntryView& e) {
        sum.Add(e);
        return true;
      });
    });
    if (first) {
      reference = sum;
      first = false;
    }
    const bool identical = sum == reference;
    if (!identical) g_identical_gate = false;
    if (allocs != 0) g_alloc_gate = false;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(sum.h));
    table.AddRow({bulk ? "bulk" : "memtable", bench::FmtInt(sum.count), hash,
                  bench::FmtInt(allocs)});
  }
  table.Print();
  g_gates.Add("streams_identical", g_identical_gate ? 1 : 0);
  g_gates.Add("scan_allocations", g_alloc_gate ? 0 : 1);
}

// --- google-benchmark micro kernels ----------------------------------------

const std::vector<pgrid::Entry>& KernelEntries() {
  static const std::vector<pgrid::Entry>* entries = [] {
    return new std::vector<pgrid::Entry>(MakeDataset(100000, 7));
  }();
  return *entries;
}

void BM_BulkLoad(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  pgrid::LocalStore store(IngestPosture());
  size_t i = 0;
  for (auto _ : state) {
    if (i + batch > KernelEntries().size()) {
      state.PauseTiming();
      store.Clear();
      i = 0;
      state.ResumeTiming();
    }
    store.BulkLoad(std::vector<pgrid::Entry>(
        KernelEntries().begin() + static_cast<ptrdiff_t>(i),
        KernelEntries().begin() + static_cast<ptrdiff_t>(i + batch)));
    i += batch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_BulkLoad)->Arg(4096)->Arg(65536);

void BM_ApplyTiered(benchmark::State& state) {
  pgrid::LocalStore store(IngestPosture());
  size_t i = 0;
  for (auto _ : state) {
    if (i == KernelEntries().size()) {
      state.PauseTiming();
      store.Clear();
      i = 0;
      state.ResumeTiming();
    }
    store.Apply(KernelEntries()[i++]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyTiered);

void BM_CompressedScan(benchmark::State& state) {
  pgrid::LocalStore store(IngestPosture());
  store.BulkLoad(KernelEntries());
  store.Compact();
  uint64_t visited = 0;
  for (auto _ : state) {
    store.ScanAll([&visited](const pgrid::EntryView& e) {
      benchmark::DoNotOptimize(e.version);
      ++visited;
      return true;
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_CompressedScan);

}  // namespace

int main(int argc, char** argv) {
  RunIngestThroughput();
  RunWriteAmplification();
  RunCompressionSavings();
  RunStreamIdentity();
  g_gates.WriteTo("BENCH_bulk_load_gates.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  int rc = 0;
  if (!g_bulk_gate) {
    std::printf("FAIL: bulk ingest speedup below the 5x gate\n");
    rc = 1;
  }
  if (!g_wa_gate) {
    std::printf("FAIL: tiered write amplification not below full-merge\n");
    rc = 1;
  }
  if (!g_compress_gate) {
    std::printf("FAIL: compressed-run savings below the 25%% gate\n");
    rc = 1;
  }
  if (!g_identical_gate) {
    std::printf("FAIL: scan streams differ across write paths\n");
    rc = 1;
  }
  if (!g_alloc_gate) {
    std::printf("FAIL: visitor read path allocated\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("all bulk-load gates passed (5x ingest, WA below "
                "full-merge, >=25%% compression, identical alloc-free "
                "streams)\n");
  }
  return rc;
}
