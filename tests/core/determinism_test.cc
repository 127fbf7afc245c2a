// Determinism (DESIGN.md §2): a fixed-seed scenario — inserts, VQL
// queries, message loss, churn, faults — run twice must produce
// byte-identical query results, delivery traces, traffic statistics,
// clocks and event counts. Runs are compared at quiescent points (after
// RunUntilIdle). The disk backend must not change a logical outcome, and
// one pinned scenario must keep the digest recorded for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/datagen.h"
#include "pgrid/backend_env.h"
#include "pgrid/local_store.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

namespace unistore {
namespace core {
namespace {

struct Capture {
  std::string ops;        ///< Statuses + serialized query results, in order.
  std::string stats;      ///< TrafficStats at the end.
  std::string trace;      ///< Canonical per-peer delivery trace.
  sim::SimTime final_now; ///< Clock at final quiescence.
  size_t processed;       ///< Total events processed.
};

Capture RunScenario(bool disk_backend = false) {
  ClusterOptions options;
  options.peers = 64;
  options.replication = 2;
  options.seed = 20260728;
  options.loss_probability = 0.01;
  // Outlives the cluster: every peer's disk store writes into its own
  // per-peer directory of this shared in-memory filesystem.
  pgrid::storage::MemEnv env;
  if (disk_backend) {
    options.peer.storage.backend = pgrid::LocalStoreOptions::Backend::kDisk;
    options.peer.storage.data_dir = "unistore-data";
    options.peer.storage.env = &env;
    // Aggressive flushing so the scenario actually runs through disk runs
    // and compactions, not just the memtable.
    options.peer.storage.memtable_flush_threshold = 4;
    options.peer.storage.block_bytes = 256;
  }
  Cluster cluster(options);
  cluster.overlay().transport().EnableDeliveryTrace();

  std::ostringstream ops;
  auto quiesce = [&cluster] { cluster.scheduler().RunUntilIdle(); };

  BibliographyOptions data;
  data.authors = 10;
  data.publications_per_author = 2;
  data.seed = 5;
  auto tuples = GenerateBibliography(data).AllTuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto via = static_cast<net::PeerId>(i % cluster.size());
    ops << "insert " << i << ": "
        << cluster.InsertTupleSync(via, tuples[i]).ToString() << "\n";
    quiesce();
  }
  cluster.RefreshStats();
  quiesce();

  const std::vector<std::string> queries = {
      "SELECT ?a,?n WHERE { (?a,'name',?n) }",
      "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= 40 }",
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g < 60 }",
      "SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT 5",
      "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'ranking' }",
  };
  auto run_queries = [&](const char* phase) {
    net::PeerId via = 0;
    for (const auto& q : queries) {
      auto result = cluster.QuerySync(via, q);
      ops << phase << " query '" << q << "' via " << via << ": ";
      if (result.ok()) {
        ops << result->plan_text << result->ToTable();
      } else {
        ops << result.status().ToString() << "\n";
      }
      quiesce();
      via = static_cast<net::PeerId>((via + 7) % cluster.size());
    }
  };
  run_queries("pre-churn");

  // Churn: kill every 9th peer (never peer 0, a query entry point), query
  // through the holes, then revive.
  std::vector<net::PeerId> downed;
  for (net::PeerId p = 9; p < cluster.size(); p += 9) downed.push_back(p);
  for (net::PeerId p : downed) cluster.overlay().Crash(p);
  run_queries("churn");
  for (net::PeerId p : downed) cluster.overlay().Revive(p);
  // Each revived peer runs manifest-delta replica repair (chunked run
  // fetches, deterministic donor shuffle) — part of the compared stream,
  // so a nondeterministic repair path would diff here.
  for (net::PeerId p : downed) {
    ops << "repair " << p << ": "
        << cluster.overlay().PullFromReplicaSync(p).ToString() << "\n";
    quiesce();
  }
  run_queries("post-churn");

  Capture capture;
  capture.ops = ops.str();
  // Part of the compared stream: a wedged disk store (or any storage I/O
  // error) would surface here as a diff against the memory reference.
  capture.ops += "storage: " + cluster.StorageStatus().ToString() + "\n";
  capture.stats = cluster.overlay().transport().stats().ToString();
  capture.trace = cluster.overlay().transport().DeliveryTrace();
  capture.final_now = cluster.scheduler().Now();
  capture.processed = cluster.scheduler().processed_events();
  return capture;
}

void ExpectIdentical(const Capture& a, const Capture& b, const char* label) {
  EXPECT_EQ(a.ops, b.ops) << label << ": operation outcomes differ";
  EXPECT_EQ(a.stats, b.stats) << label << ": TrafficStats differ";
  EXPECT_TRUE(a.trace == b.trace)
      << label << ": delivery traces differ (" << a.trace.size() << " vs "
      << b.trace.size() << " bytes)";
  EXPECT_EQ(a.final_now, b.final_now) << label << ": clocks differ";
  EXPECT_EQ(a.processed, b.processed) << label << ": event counts differ";
}

TEST(DeterminismTest, SameSeedSameRun) {
  auto first = RunScenario();
  auto second = RunScenario();
  ExpectIdentical(first, second, "repeat");
  EXPECT_GT(first.processed, 1000u);  // The scenario is non-trivial.
  EXPECT_NE(first.trace.find("Insert"), std::string::npos);
  // The substring query runs on the q-gram postings.
  EXPECT_NE(first.ops.find("PatternScan[SimilarityQGram] (?p,'title',?t) "
                           "contains='ranking'"),
            std::string::npos);
}

// The storage determinism contract, across the two storage engines:
// swapping every peer onto the disk-backed store (per-peer directories in
// one shared in-memory filesystem, aggressive flush/compaction) changes no
// logical outcome — insert statuses, query results, repair statuses, and
// storage health stay byte-identical to the in-memory reference. Wire
// traffic is NOT backend-invariant: manifest-delta repair (DESIGN.md §9)
// plans chunk fetches against the physical run layout, which differs
// between the memtable-resident memory config and the aggressively
// flushing disk config. Within the disk configuration, everything —
// traces, traffic, clocks, repair chunk streams — replays byte-identically.
TEST(DeterminismTest, DiskBackendMatchesMemoryAcrossEngines) {
  auto reference = RunScenario();
  auto disk = RunScenario(/*disk_backend=*/true);
  EXPECT_EQ(reference.ops, disk.ops)
      << "disk backend changed a logical outcome";
  ExpectIdentical(disk, RunScenario(/*disk_backend=*/true), "disk repeat");
}

// --- Scripted churn (peer lifecycle, DESIGN.md §11) -------------------------

// A declarative ChurnSchedule — crash+restart, a permanent crash, a
// graceful leave, and an auto-sponsored live join — compiled into
// lifecycle events, with the re-protection guard probing and recruiting
// throughout. Liveness is a pure function of virtual time evaluated by
// the transport; every protocol action runs as an event of the affected
// peer's own domain — so the whole lifecycle, the timed writes threaded
// through it, and the aggregated lifecycle counters must replay
// byte-identically, and (logically) with every restarted peer on the disk
// backend instead of memory.
Capture RunChurnScenario(bool disk_backend = false) {
  ClusterOptions options;
  options.peers = 64;
  options.replication = 2;
  options.seed = 20260808;
  options.peer.request_timeout = 300 * sim::kMicrosPerMilli;
  options.peer.request_retries = 4;
  options.peer.replication_target = 2;
  options.peer.reprotect_period = 500 * sim::kMicrosPerMilli;
  options.peer.reprotect_until = 12 * sim::kMicrosPerSecond;
  pgrid::storage::MemEnv env;
  if (disk_backend) {
    options.peer.storage.backend = pgrid::LocalStoreOptions::Backend::kDisk;
    options.peer.storage.data_dir = "unistore-data";
    options.peer.storage.env = &env;
    options.peer.storage.memtable_flush_threshold = 4;
    options.peer.storage.block_bytes = 256;
  }
  // The scripted lifecycle: a crash that recovers (disk: manifest replay;
  // memory: empty restart + catch-up), a crash that never does, a
  // graceful leave with a drain window, and a join the overlay sponsors
  // automatically.
  options.churn_schedule.Crash(9, 1 * sim::kMicrosPerSecond,
                               /*restart_at=*/3 * sim::kMicrosPerSecond);
  options.churn_schedule.Crash(17, 2 * sim::kMicrosPerSecond);
  options.churn_schedule.Leave(25, 4 * sim::kMicrosPerSecond,
                               /*drain_us=*/500 * sim::kMicrosPerMilli);
  options.churn_schedule.Join(5 * sim::kMicrosPerSecond);
  Cluster cluster(options);
  cluster.overlay().transport().EnableDeliveryTrace();

  std::ostringstream ops;
  BibliographyOptions data;
  data.authors = 8;
  data.publications_per_author = 2;
  data.seed = 5;
  auto tuples = GenerateBibliography(data).AllTuples();

  // Writes threaded through the churn window (t = 0.5 s .. 6 s), from
  // rotating initiators that are never scripted-down at issue time; the
  // ack statuses are part of the compared stream.
  auto& sim = cluster.scheduler();
  for (size_t i = 0; i < tuples.size(); ++i) {
    const auto when =
        500 * sim::kMicrosPerMilli + i * 150 * sim::kMicrosPerMilli;
    const auto via = static_cast<net::PeerId>((i * 5 + 1) % 8);
    sim.ScheduleAt(when, [&, i, via] {
      cluster.node(via).InsertTuple(tuples[i], [&ops, i](Status s) {
        ops << "insert " << i << ": " << s.ToString() << "\n";
      });
    });
  }
  // Drains the writes AND the whole lifecycle: restart catch-up, leave
  // hand-off, join adoption, guard ticks to the horizon.
  cluster.scheduler().RunUntilIdle();

  // Post-churn reads over every region, from a survivor.
  const std::vector<std::string> queries = {
      "SELECT ?a,?n WHERE { (?a,'name',?n) }",
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) FILTER ?g < 60 }",
  };
  for (const auto& q : queries) {
    auto result = cluster.QuerySync(0, q);
    ops << "post-churn query '" << q << "': ";
    if (result.ok()) {
      ops << result->ToTable();
    } else {
      ops << result.status().ToString() << "\n";
    }
    cluster.scheduler().RunUntilIdle();
  }

  Capture capture;
  capture.ops = ops.str();
  capture.ops += "storage: " + cluster.StorageStatus().ToString() + "\n";
  // The aggregated lifecycle counters (restarts, joins, leaves, hand-off
  // sizes, recruits, confirmed failures, catch-up time) are part of the
  // compared stream: a nondeterministic lifecycle path diffs here.
  capture.ops += "lifecycle: " + cluster.AggregateLifecycleStats().ToString() +
                 "\n";
  capture.stats = cluster.overlay().transport().stats().ToString();
  capture.trace = cluster.overlay().transport().DeliveryTrace();
  capture.final_now = cluster.scheduler().Now();
  capture.processed = cluster.scheduler().processed_events();
  return capture;
}

TEST(DeterminismTest, ChurnScheduleReplaysByteIdentical) {
  auto reference = RunChurnScenario();
  // The lifecycle actually ran: both restarts-and-joins happened and the
  // churn plane dropped traffic.
  EXPECT_NE(reference.ops.find("restarts=1"), std::string::npos)
      << reference.ops.substr(reference.ops.find("lifecycle:"));
  EXPECT_NE(reference.ops.find("joins=1"), std::string::npos);
  EXPECT_NE(reference.ops.find("leaves=1"), std::string::npos);
  EXPECT_EQ(reference.stats.find(" churn_drop=0 "), std::string::npos)
      << "churn plane never dropped a message";
  ExpectIdentical(reference, RunChurnScenario(), "churn repeat");
}

// Across the two storage engines: restarted peers on the disk backend
// replay their manifest instead of restarting empty. Wire traffic differs
// (catch-up fetches less), but no logical outcome — ack statuses, query
// rows, lifecycle transition counts, storage health — may change. Within
// the disk configuration, everything replays byte-identically.
TEST(DeterminismTest, ChurnDiskRestartsMatchMemoryAcrossEngines) {
  auto memory = RunChurnScenario();
  auto disk = RunChurnScenario(/*disk_backend=*/true);
  // Catch-up duration depends on how much the backend recovered, so strip
  // the lifecycle line down to the transition counts for the cross-backend
  // comparison.
  auto logical = [](const Capture& c) {
    std::string s = c.ops;
    auto at = s.find("max_catchup_us=");
    if (at != std::string::npos) s.resize(at);
    return s;
  };
  EXPECT_EQ(logical(memory), logical(disk))
      << "disk-backed restarts changed a logical outcome";
  ExpectIdentical(disk, RunChurnScenario(/*disk_backend=*/true),
                  "churn disk repeat");
}

// --- Envelope-heavy workload (batched Migrate joins, DESIGN.md §4) ----------

// A trie that is deep under the 'age' partition so Migrate-join envelopes
// walk many peers, with forced Migrate strategy, fan-out, chunking,
// pipelining and message loss all enabled: the batched envelope executor
// must replay byte-identically.
Capture RunMigrateScenario(double loss_probability = 0.005,
                           bool faulted = false) {
  ClusterOptions options;
  options.custom_paths = pgrid::PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), /*inside_leaves=*/16);
  options.peers = options.custom_paths.size();
  options.seed = 20260728;
  options.loss_probability = loss_probability;
  if (faulted) {
    // Scripted fault plane (net/fault_plane.h): a permanently cut leaf,
    // one slow jittery sender, plus wildcard corruption and duplication.
    // Unreachable coverage turns into explicit gaps, and every retry waits
    // its RetryPolicy backoff — all of it must replay byte-identically.
    const auto cut = static_cast<net::PeerId>(options.peers - 1);
    options.fault_schedule.PartitionPair(0, net::kFaultForever, cut,
                                         net::kAnyPeer);
    options.fault_schedule.Delay(0, net::kFaultForever, 3, net::kAnyPeer,
                                 /*delay_us=*/700, /*jitter_us=*/400);
    options.fault_schedule.Corrupt(0, net::kFaultForever, net::kAnyPeer,
                                   net::kAnyPeer, 0.01);
    options.fault_schedule.Duplicate(0, net::kFaultForever, net::kAnyPeer,
                                     net::kAnyPeer, 0.02);
  }
  options.node.planner.force_join_strategy = plan::JoinStrategy::kMigrate;
  options.node.envelope.fanout = 4;
  options.node.envelope.max_bindings_per_envelope = 8;
  options.peer.request_timeout = 500 * sim::kMicrosPerMilli;
  options.peer.request_retries = 8;
  Cluster cluster(options);
  cluster.overlay().transport().EnableDeliveryTrace();

  std::ostringstream ops;
  auto quiesce = [&cluster] { cluster.scheduler().RunUntilIdle(); };

  for (int i = 0; i < 30; ++i) {
    const std::string oid = "p" + std::to_string(i);
    std::string age;
    age.push_back(static_cast<char>(32 + (i * 37) % 224));
    age += std::to_string(i);
    const auto via = static_cast<net::PeerId>(i % cluster.size());
    ops << "age " << i << ": "
        << cluster
               .InsertTripleSync(via, triple::Triple(oid, "age",
                                                     triple::Value::String(age)))
               .ToString()
        << "\n";
    quiesce();
    ops << "name " << i << ": "
        << cluster
               .InsertTripleSync(
                   via, triple::Triple(oid, "name",
                                       triple::Value::String(
                                           "n" + std::to_string(i))))
               .ToString()
        << "\n";
    quiesce();
  }
  cluster.RefreshStats();
  quiesce();

  const std::vector<std::string> queries = {
      "SELECT ?a,?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }",
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) } ORDER BY ?g",
  };
  for (int round = 0; round < 2; ++round) {
    net::PeerId via = 0;
    for (const auto& q : queries) {
      auto result = cluster.QuerySync(via, q);
      ops << "query '" << q << "' via " << via << ": ";
      if (result.ok()) {
        ops << result->ToTable();
        for (const auto& line : result->trace) ops << "  " << line << "\n";
      } else {
        ops << result.status().ToString() << "\n";
      }
      quiesce();
      via = static_cast<net::PeerId>((via + 11) % cluster.size());
    }
  }

  Capture capture;
  capture.ops = ops.str();
  capture.stats = cluster.overlay().transport().stats().ToString();
  capture.trace = cluster.overlay().transport().DeliveryTrace();
  capture.final_now = cluster.scheduler().Now();
  capture.processed = cluster.scheduler().processed_events();
  return capture;
}

TEST(DeterminismTest, EnvelopeHeavyWorkloadReplaysByteIdentical) {
  auto reference = RunMigrateScenario();
  // The workload actually exercised batched Migrate joins.
  EXPECT_NE(reference.ops.find("Join[Migrate]: branches="),
            std::string::npos);
  ExpectIdentical(reference, RunMigrateScenario(), "migrate repeat");
}

// The Fig-4 skyline: its probe joins send key-set lookups (DESIGN.md
// §13) whose per-hop splits and replies must replay byte-identically,
// 1% message loss and retries included.
Capture RunSkylineScenario() {
  ClusterOptions options;
  options.peers = 64;
  options.replication = 2;
  options.seed = 20261017;
  options.loss_probability = 0.01;
  Cluster cluster(options);
  cluster.overlay().transport().EnableDeliveryTrace();

  BibliographyOptions data;
  data.authors = 40;
  data.publications_per_author = 2;
  data.typo_probability = 0.3;
  data.seed = 9;
  std::ostringstream ops;
  auto tuples = GenerateBibliography(data).AllTuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto via = static_cast<net::PeerId>(i % cluster.size());
    ops << "insert " << i << ": "
        << cluster.InsertTupleSync(via, tuples[i]).ToString() << "\n";
  }
  cluster.scheduler().RunUntilIdle();
  cluster.RefreshStats();
  // At this size the cost model would migrate; probe as the query_mix
  // cluster does.
  plan::PlannerOptions planner;
  planner.force_join_strategy = plan::JoinStrategy::kProbe;
  cluster.SetPlannerOptions(planner);

  const std::string skyline =
      "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
      "(?a,'num_of_pubs',?cnt) (?a,'has_published',?title) "
      "(?p,'title',?title) (?p,'published_in',?conf) (?c,'confname',?conf) "
      "(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3} "
      "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";
  for (net::PeerId via : {0u, 21u, 63u}) {
    auto result = cluster.QuerySync(via, skyline);
    ops << "skyline via " << via << ": ";
    if (result.ok()) {
      ops << result->ToTable();
      for (const auto& line : result->trace) ops << line << "\n";
    } else {
      ops << result.status().ToString() << "\n";
    }
    cluster.scheduler().RunUntilIdle();
  }

  Capture capture;
  capture.ops = ops.str();
  capture.stats = cluster.overlay().transport().stats().ToString();
  capture.trace = cluster.overlay().transport().DeliveryTrace();
  capture.final_now = cluster.scheduler().Now();
  capture.processed = cluster.scheduler().processed_events();
  return capture;
}

TEST(DeterminismTest, SkylineReplaysByteIdentical) {
  auto reference = RunSkylineScenario();
  // The skyline answered through batched probes.
  EXPECT_NE(reference.trace.find(" Lookup req="), std::string::npos);
  EXPECT_NE(reference.ops.find("batches=1"), std::string::npos)
      << reference.ops;
  EXPECT_EQ(reference.ops.find("Unavailable", reference.ops.find("skyline")),
            std::string::npos)
      << reference.ops;
  ExpectIdentical(reference, RunSkylineScenario(), "skyline repeat");
}

// The fault-plane determinism contract (DESIGN.md §10): the same
// FaultSchedule — permanent partition, asymmetric jitter, corruption,
// duplication — replays byte-identically. Every fault draw comes from the
// sender's own RNG stream and partition checks are pure functions of
// (now, src, dst), so delivery traces, retry counters, and the partial
// results the degraded walks return are part of the compared stream.
TEST(DeterminismTest, FaultScheduleReplaysByteIdentical) {
  auto reference =
      RunMigrateScenario(/*loss_probability=*/0, /*faulted=*/true);
  // The scripted faults left a footprint: corruption, duplication and
  // partition drops all engaged (their counters are non-zero).
  EXPECT_EQ(reference.stats.find(" part_drop=0 "), std::string::npos);
  EXPECT_EQ(reference.stats.find(" dup=0 "), std::string::npos);
  EXPECT_EQ(reference.stats.find(" corrupt=0 "), std::string::npos);
  EXPECT_NE(reference.stats.find(" retry["), std::string::npos)
      << "no retry policy fired under faults";
  ExpectIdentical(reference,
                  RunMigrateScenario(/*loss_probability=*/0, /*faulted=*/true),
                  "faulted repeat");
}

// --- The protocol pinned across commits -------------------------------------

// FNV-1a over a byte string: a portable 64-bit digest.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Appends a lookup or scan answer as one row per entry: its triple.
void AddEntryRows(const std::string& label,
                  const std::vector<pgrid::Entry>& entries,
                  std::vector<std::string>* rows) {
  for (const pgrid::Entry& e : entries) {
    auto t = triple::DecodeEntryTriple(e.id);
    rows->push_back(label + " " +
                    (t.ok() ? t->ToString() : t.status().ToString()));
  }
}

struct PinnedRun {
  std::string folded;  ///< Delivery trace, then the sorted result rows.
  std::string stats;   ///< TrafficStats at the end.
};

// A 48-peer cluster runs every client path once — bulk insert, Lookup,
// LookupBatch, RangeScanSeq with a limit, RangeScanShower, a probe join
// and a forced-Migrate join — while one peer crashes and restarts and
// another is cut off for a window. LAN latency keeps every draw in
// integer arithmetic; the WAN model goes through libm.
PinnedRun RunPinnedScenario() {
  constexpr sim::SimTime kMs = sim::kMicrosPerMilli;
  ClusterOptions options;
  options.peers = 48;
  options.replication = 2;
  options.seed = 20261019;
  options.peer.request_timeout = 200 * kMs;
  Cluster cluster(options);
  pgrid::Overlay& overlay = cluster.overlay();
  sim::Scheduler& scheduler = cluster.scheduler();
  overlay.transport().EnableDeliveryTrace();
  std::vector<std::string> rows;

  BibliographyOptions data;
  data.authors = 12;
  data.publications_per_author = 2;
  data.seed = 11;
  const Bibliography bib = GenerateBibliography(data);
  rows.push_back("bulk " +
                 cluster.BulkLoadTuplesSync(0, bib.AllTuples()).ToString());
  scheduler.RunUntilIdle();
  cluster.RefreshStats();

  // The crash-restart and the partition window land inside the reads.
  const sim::SimTime t0 = scheduler.Now();
  net::ChurnSchedule churn;
  churn.Crash(7, t0 + 1 * kMs, /*restart_at=*/t0 + 300 * kMs);
  cluster.InstallChurn(std::move(churn));
  net::FaultSchedule faults;
  faults.PartitionPair(t0 + 20 * kMs, t0 + 400 * kMs, 40, net::kAnyPeer);
  overlay.transport().SetFaultSchedule(std::move(faults));

  std::vector<pgrid::Key> keys;
  for (const triple::Tuple& t : bib.persons) {
    keys.push_back(triple::OidKey(t.oid));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string label = "lookup " + std::to_string(i);
    auto via = static_cast<net::PeerId>((i * 7) % cluster.size());
    auto found = overlay.LookupSync(via, keys[i]);
    if (found.ok()) {
      AddEntryRows(label, found->entries, &rows);
    } else {
      rows.push_back(label + " " + found.status().ToString());
    }
  }
  auto batch = overlay.LookupBatchSync(5, keys);
  if (batch.ok()) {
    for (const auto& [key, entries] : *batch) {
      AddEntryRows("batch", entries, &rows);
    }
  } else {
    rows.push_back("batch " + batch.status().ToString());
  }

  std::optional<Result<pgrid::RangeResult>> seq;
  overlay.peer(3)->RangeScanSeq(
      triple::AttrRange("age"),
      [&seq](Result<pgrid::RangeResult> r) { seq = std::move(r); },
      /*limit=*/5);
  scheduler.RunUntil([&seq] { return seq.has_value(); });
  if (seq.has_value() && seq->ok()) {
    AddEntryRows("seq", (*seq)->entries, &rows);
  } else {
    rows.push_back("seq failed");
  }
  auto shower = overlay.RangeShowerSync(40, triple::AttrRange("name"));
  if (shower.ok()) {
    AddEntryRows("shower", shower->entries, &rows);
  } else {
    rows.push_back("shower " + shower.status().ToString());
  }

  const std::string join =
      "SELECT ?n,?t WHERE { (?a,'name',?n) (?a,'has_published',?t) }";
  for (plan::JoinStrategy strategy :
       {plan::JoinStrategy::kProbe, plan::JoinStrategy::kMigrate}) {
    plan::PlannerOptions planner;
    planner.force_join_strategy = strategy;
    cluster.SetPlannerOptions(planner);
    for (net::PeerId via : {1u, 30u}) {
      const std::string label =
          std::string(strategy == plan::JoinStrategy::kProbe ? "probe"
                                                             : "migrate") +
          " via " + std::to_string(via);
      auto result = cluster.QuerySync(via, join);
      if (result.ok()) {
        for (const exec::Binding& b : result->rows) {
          rows.push_back(label + " " + exec::BindingToString(b));
        }
      } else {
        rows.push_back(label + " " + result.status().ToString());
      }
    }
  }
  scheduler.RunUntilIdle();

  std::sort(rows.begin(), rows.end());
  PinnedRun run;
  run.folded = overlay.transport().DeliveryTrace();
  for (const std::string& row : rows) run.folded += row + "\n";
  run.stats = overlay.transport().stats().ToString();
  return run;
}

// Replay tests compare a run with itself; this one compares the protocol
// with the commit that recorded the literal, so any change to message
// order, timing, payloads or results shows. A change that alters protocol
// behaviour on purpose re-records the literal (DESIGN.md §2).
TEST(DeterminismTest, PinnedTraceDigest) {
  const PinnedRun run = RunPinnedScenario();
  // The scenario exercised what it claims: the crash and the cut dropped
  // traffic, a retry budget was spent, and both join strategies answered.
  EXPECT_EQ(run.stats.find(" churn_drop=0 "), std::string::npos) << run.stats;
  EXPECT_EQ(run.stats.find(" part_drop=0 "), std::string::npos) << run.stats;
  EXPECT_NE(run.stats.find(" retry["), std::string::npos) << run.stats;
  EXPECT_NE(run.folded.find("\nmigrate via 30 {"), std::string::npos);
  EXPECT_NE(run.folded.find("\nprobe via 30 {"), std::string::npos);
  EXPECT_EQ(Fnv1a64(run.folded), 0x7482efe5012037e5ULL)
      << "digest of " << run.folded.size() << " bytes changed";
}

}  // namespace
}  // namespace core
}  // namespace unistore
