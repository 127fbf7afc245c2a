// Sharded-vs-single-thread engine comparison (ROADMAP scaling item).
//
// A 256/512-peer overlay executes a concurrent workload — every peer
// issues staggered routed inserts and lookups, all in flight together —
// under the single-threaded engine and under ShardedScheduler with K in
// {2, 4} (inline and with a worker pool). Reported per engine: wall-clock
// time of the identical event stream, events/s, and whether the merged
// traffic statistics match the single-threaded run bit-for-bit (they
// must — that is the determinism contract, DESIGN.md §2).
//
// Writes BENCH_sharded_scaling.json next to the binary for the CI
// artifact job.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pgrid/overlay.h"
#include "sim/scheduler.h"
#include "sim/sharded_scheduler.h"
#include "sim/simulation.h"

using namespace unistore;

namespace {

pgrid::Entry MakeEntry(uint64_t i) {
  pgrid::Entry e;
  std::string value(1, static_cast<char>((i * 37) % 251 + 1));
  value += "-value-" + std::to_string(i);
  e.key = pgrid::OpHash(value);
  e.id = "id" + std::to_string(i);
  return e;
}

struct EngineRow {
  std::string engine;
  size_t peers = 0;
  double wall_ms = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t windows = 0;
  std::string stats;  ///< Merged TrafficStats (determinism check).
};

EngineRow RunWorkload(const std::string& label, size_t peers,
                      std::unique_ptr<sim::Scheduler> scheduler) {
  pgrid::OverlayOptions options;
  options.seed = 99;
  options.replication = 2;
  pgrid::Overlay overlay(options, std::make_unique<sim::ConstantLatency>(
                                      1 * sim::kMicrosPerMilli),
                         scheduler.get());
  overlay.AddPeers(peers);
  overlay.BuildBalanced();

  // Concurrent phase: 4 rounds in which *every* peer issues one routed
  // insert and one lookup, staggered so thousands of operations overlap.
  const size_t kRounds = 4;
  sim::Scheduler& sched = overlay.scheduler();
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < peers; ++p) {
      const sim::SimTime when =
          static_cast<sim::SimTime>(round * 40 * sim::kMicrosPerMilli +
                                    p * 13);
      const uint64_t item = round * peers + p;
      auto* peer = overlay.peer(static_cast<net::PeerId>(p));
      sched.ScheduleEvent(when, sim::kHarnessDomain,
                          static_cast<uint32_t>(p), [peer, item] {
                            peer->Insert(MakeEntry(item), [](Status) {});
                          });
      sched.ScheduleEvent(when + 20 * sim::kMicrosPerMilli,
                          sim::kHarnessDomain, static_cast<uint32_t>(p),
                          [peer, item] {
                            peer->Lookup(pgrid::OpHash(
                                             "-value-" + std::to_string(item)),
                                         pgrid::LookupMode::kExact,
                                         [](Result<pgrid::LookupResult>) {});
                          });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  overlay.scheduler().RunUntilIdle();
  const auto stop = std::chrono::steady_clock::now();

  EngineRow row;
  row.engine = label;
  row.peers = peers;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  row.events = overlay.scheduler().processed_events();
  const auto stats = overlay.transport().stats();
  row.messages = stats.messages_sent;
  row.stats = stats.ToString();
  if (auto* sharded =
          dynamic_cast<sim::ShardedScheduler*>(&overlay.scheduler())) {
    row.windows = sharded->windows_run();
  }
  return row;
}

std::unique_ptr<sim::Scheduler> MakeSharded(size_t shards, size_t threads) {
  sim::ShardedScheduler::Options options;
  options.shards = shards;
  options.threads = threads;
  options.lookahead = 1 * sim::kMicrosPerMilli;  // == the constant latency.
  return std::make_unique<sim::ShardedScheduler>(options);
}

void WriteJson(const std::vector<EngineRow>& rows, bool deterministic) {
  std::FILE* f = std::fopen("BENCH_sharded_scaling.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"benchmark\": \"sharded_scaling\",\n");
  std::fprintf(f, "  \"deterministic_across_engines\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"peers\": %zu, "
                 "\"wall_ms\": %.2f, \"events\": %llu, "
                 "\"messages\": %llu, \"windows\": %llu, "
                 "\"events_per_sec\": %.0f}%s\n",
                 r.engine.c_str(), r.peers, r.wall_ms,
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.messages),
                 static_cast<unsigned long long>(r.windows),
                 r.wall_ms > 0 ? r.events / (r.wall_ms / 1000.0) : 0.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  bench::Banner(
      "S1 / sharded engine scaling",
      "Identical concurrent insert+lookup workload under the "
      "single-threaded engine vs ShardedScheduler (conservative "
      "lookahead barriers). Stats must match bit-for-bit; wall clock "
      "shows the parallelization headroom on this host.");

  bench::Table table({"peers", "engine", "wall ms", "events", "msgs",
                      "windows", "events/s", "stats match"});
  std::vector<EngineRow> all;
  bool deterministic = true;
  for (size_t peers : {256, 512}) {
    std::vector<EngineRow> rows;
    rows.push_back(RunWorkload("single-thread", peers,
                               std::make_unique<sim::Simulation>()));
    rows.push_back(RunWorkload("sharded K=2 inline", peers,
                               MakeSharded(2, 1)));
    rows.push_back(RunWorkload("sharded K=4 inline", peers,
                               MakeSharded(4, 1)));
    rows.push_back(RunWorkload("sharded K=4 threads=4", peers,
                               MakeSharded(4, 4)));
    for (const EngineRow& row : rows) {
      const bool match = row.stats == rows.front().stats;
      deterministic = deterministic && match;
      table.AddRow({std::to_string(row.peers), row.engine,
                    bench::Fmt("%.1f", row.wall_ms),
                    bench::FmtInt(row.events), bench::FmtInt(row.messages),
                    bench::FmtInt(row.windows),
                    bench::Fmt("%.0f", row.wall_ms > 0
                                           ? row.events /
                                                 (row.wall_ms / 1000.0)
                                           : 0.0),
                    match ? "yes" : "NO"});
      all.push_back(row);
    }
  }
  table.Print();
  std::printf(
      "note: speedup requires multiple physical cores; on a single core "
      "the table documents the barrier overhead instead (ROADMAP "
      "performance-baselines item).\n");
  WriteJson(all, deterministic);
  return deterministic ? 0 : 1;
}
