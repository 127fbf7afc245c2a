// Replica-repair benchmark: manifest-delta snapshot shipping vs the
// full-state pull it replaced (DESIGN.md §9).
//
// Two measurements, each with an acceptance gate:
//  1. Delta efficiency — a donor holding 1M entries in 8 runs repairs a
//     replica that is missing exactly one run. The repair traffic
//     (manifest exchange + chunked run fetches) must stay below 20% of
//     the full-state byte volume the seed's single-message pull shipped,
//     and the repaired replica must end byte-identical to the donor
//     (stream checksum equality).
//  2. Chunk bound — across BOTH the delta repair and a from-empty full
//     repair, no single RunFetchReply may exceed the configured chunk
//     budget (plus framing slack). The seed shipped the whole store in
//     one unbounded reply; this gate pins the fix at 1M-entry scale.
//
// Runs inside the deterministic simulation: byte counts are exact wire
// sizes, identical on every machine.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/message.h"
#include "net/transport.h"
#include "pgrid/local_store.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"
#include "pgrid/peer.h"

using namespace unistore;

namespace {

using net::MessageType;
using net::TrafficStats;

constexpr size_t kRuns = 8;
constexpr size_t kEntriesPerRun = 125000;  // 8 x 125k = 1M entries total.
constexpr size_t kChunkBytes = 256 * 1024;
constexpr uint64_t kChunkSlack = 256;  // Reply framing around the block.

pgrid::Entry MakeEntry(const std::string& value) {
  pgrid::Entry e;
  e.key = pgrid::OpHash(value);
  e.id = "id";
  e.version = 1;
  return e;
}

std::vector<pgrid::Entry> MakeRunBatch(size_t run, size_t entries) {
  std::vector<pgrid::Entry> out;
  out.reserve(entries);
  for (size_t i = 0; i < entries; ++i) {
    out.push_back(
        MakeEntry("r" + std::to_string(run) + "-" + std::to_string(i)));
  }
  return out;
}

bench::StreamChecksum StoreChecksum(const pgrid::LocalStore& store) {
  bench::StreamChecksum sum;
  store.ScanAll([&sum](const pgrid::EntryView& e) {
    sum.Add(e);
    return true;
  });
  return sum;
}

uint64_t RepairBytes(const TrafficStats& delta) {
  uint64_t total = 0;
  for (MessageType type :
       {MessageType::kManifestPull, MessageType::kManifestPullReply,
        MessageType::kRunFetch, MessageType::kRunFetchReply}) {
    auto it = delta.per_type_bytes.find(type);
    if (it != delta.per_type_bytes.end()) total += it->second;
  }
  return total;
}

// A 2-peer fully replicated overlay where both peers keep their runs
// distinct (no automatic tier merging), donor = peer 0, repairer = peer 1
// seeded with the first `repairer_runs` of the donor's `kRuns` batches.
std::unique_ptr<pgrid::Overlay> BuildPair(size_t repairer_runs,
                                          size_t entries_per_run) {
  pgrid::OverlayOptions options;
  options.seed = 77;
  options.replication = 2;
  options.peer.chunk_bytes = kChunkBytes;
  options.peer.storage.tier_fanin = 100;  // Keep runs distinct.
  auto overlay = std::make_unique<pgrid::Overlay>(options);
  overlay->AddPeers(2);
  overlay->BuildBalanced();
  for (size_t b = 0; b < kRuns; ++b) {
    std::vector<pgrid::Entry> batch = MakeRunBatch(b, entries_per_run);
    overlay->peer(0)->store().BulkLoad(batch);
    if (b < repairer_runs) overlay->peer(1)->store().BulkLoad(batch);
  }
  return overlay;
}

double g_delta_ratio = 1e9;
bool g_delta_identical = false;
bool g_full_identical = false;
uint64_t g_max_chunk_bytes = 0;

struct RepairRow {
  uint64_t repair_bytes = 0;
  uint64_t messages = 0;
  uint64_t max_reply = 0;
  bool identical = false;
  double wall_s = 0;
};

RepairRow RunRepair(size_t repairer_runs) {
  auto overlay = BuildPair(repairer_runs, kEntriesPerRun);
  const TrafficStats before = overlay->transport().stats();
  const auto t0 = std::chrono::steady_clock::now();
  const Status status = overlay->PullFromReplicaSync(1);
  RepairRow row;
  row.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!status.ok()) {
    std::printf("!! repair failed: %s\n", status.ToString().c_str());
    return row;
  }
  const TrafficStats delta = overlay->transport().stats().Since(before);
  row.repair_bytes = RepairBytes(delta);
  for (MessageType type :
       {MessageType::kManifestPull, MessageType::kManifestPullReply,
        MessageType::kRunFetch, MessageType::kRunFetchReply}) {
    auto it = delta.per_type.find(type);
    if (it != delta.per_type.end()) row.messages += it->second;
  }
  auto max_it = delta.per_type_max_bytes.find(MessageType::kRunFetchReply);
  if (max_it != delta.per_type_max_bytes.end()) row.max_reply = max_it->second;
  row.identical = StoreChecksum(overlay->peer(1)->store()) ==
                  StoreChecksum(overlay->peer(0)->store());
  return row;
}

void RunDeltaEfficiency() {
  bench::Banner(
      "R1 / delta repair efficiency",
      "Donor: 1M entries in 8 runs. Repair a replica missing one run vs a "
      "replica missing everything. Gates: one-missing-run repair < 0.2x "
      "the full-state bytes; both repairs end byte-identical; no "
      "RunFetchReply exceeds the 256 KiB chunk budget.");

  // Full-state baseline: the encoded entry volume the seed's single
  // unbounded anti-entropy reply carried.
  uint64_t full_state_bytes = 0;
  {
    auto overlay = BuildPair(0, kEntriesPerRun);
    overlay->peer(0)->store().ScanAll(
        [&full_state_bytes](const pgrid::EntryView& e) {
          full_state_bytes += e.EncodedSize();
          return true;
        });
  }

  bench::Table table({"scenario", "repair MB", "msgs", "max reply KB",
                      "identical", "wall s"});
  RepairRow full = RunRepair(0);
  RepairRow delta = RunRepair(kRuns - 1);
  auto add_row = [&table](const char* name, const RepairRow& row) {
    table.AddRow({name,
                  bench::Fmt("%.2f", static_cast<double>(row.repair_bytes) /
                                         (1024.0 * 1024.0)),
                  bench::FmtInt(row.messages),
                  bench::Fmt("%.1f", static_cast<double>(row.max_reply) /
                                         1024.0),
                  row.identical ? "yes" : "NO",
                  bench::Fmt("%.2f", row.wall_s)});
  };
  add_row("from-empty (all 8 runs)", full);
  add_row("one missing run of 8", delta);
  table.Print();

  g_full_identical = full.identical;
  g_delta_identical = delta.identical;
  g_delta_ratio = full_state_bytes > 0
                      ? static_cast<double>(delta.repair_bytes) /
                            static_cast<double>(full_state_bytes)
                      : 1e9;
  g_max_chunk_bytes = std::max(full.max_reply, delta.max_reply);
  std::printf(
      "full-state volume %.2f MB, delta repair %.2f MB -> ratio %.3fx "
      "(gate: < 0.2x); max reply %llu B (budget %zu + %llu slack)\n",
      static_cast<double>(full_state_bytes) / (1024.0 * 1024.0),
      static_cast<double>(delta.repair_bytes) / (1024.0 * 1024.0),
      g_delta_ratio, static_cast<unsigned long long>(g_max_chunk_bytes),
      kChunkBytes, static_cast<unsigned long long>(kChunkSlack));
}

// --- google-benchmark micro kernels ----------------------------------------

// Manifest computation: run summaries over 1M entries across 8 runs. The
// first call pays the lazy CRC pass; steady state is cached.
void BM_RunSummaries(benchmark::State& state) {
  pgrid::LocalStoreOptions o;
  o.tier_fanin = 100;
  pgrid::LocalStore store(o);
  for (size_t b = 0; b < kRuns; ++b) {
    store.BulkLoad(MakeRunBatch(b, kEntriesPerRun));
  }
  for (auto _ : state) {
    auto summaries = store.RunSummaries();
    benchmark::DoNotOptimize(summaries.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kRuns * kEntriesPerRun));
}
BENCHMARK(BM_RunSummaries);

// End-to-end one-missing-run repair at a smaller scale (wall time of the
// simulated protocol, donor scan resume cost included).
void BM_RepairOneMissingRun(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto overlay = BuildPair(kRuns - 1, 2000);
    state.ResumeTiming();
    benchmark::DoNotOptimize(overlay->PullFromReplicaSync(1).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2000));
}
BENCHMARK(BM_RepairOneMissingRun);

}  // namespace

int main(int argc, char** argv) {
  RunDeltaEfficiency();

  bench::GateJson gates;
  gates.Add("repair_delta_ratio_one_missing_run", g_delta_ratio);
  gates.Add("repair_delta_byte_identical", g_delta_identical ? 1 : 0);
  gates.Add("repair_full_byte_identical", g_full_identical ? 1 : 0);
  gates.Add("repair_max_reply_bytes", static_cast<double>(g_max_chunk_bytes));
  gates.WriteTo("BENCH_replica_repair_gates.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (g_delta_ratio >= 0.2) {
    std::printf("FAIL: delta repair ratio %.3fx not below the 0.2x gate\n",
                g_delta_ratio);
    return 1;
  }
  if (!g_delta_identical || !g_full_identical) {
    std::printf("FAIL: repaired replica not byte-identical to the donor\n");
    return 1;
  }
  if (g_max_chunk_bytes > kChunkBytes + kChunkSlack) {
    std::printf("FAIL: a RunFetchReply exceeded the chunk budget (%llu B)\n",
                static_cast<unsigned long long>(g_max_chunk_bytes));
    return 1;
  }
  return 0;
}
