// Deterministic peer lifecycle (DESIGN.md §11): the churn plane's liveness
// windows, crash-restart recovery through both storage backends, live
// joins (split and adoption), graceful-leave hand-off, and the replica
// re-protection guard (probe-based failure confirmation + recruiting).
//
// Also the query layer's restart hook (in-flight Migrate joins fail once)
// and the stale-cache regression: a replica-group advert that names a
// replica which crashes mid-stream must fail over through retry +
// suspicion instead of wedging the initiator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/query_service.h"
#include "net/churn_plane.h"
#include "pgrid/backend_env.h"
#include "pgrid/overlay.h"
#include "pgrid/run_summary.h"
#include "triple/index.h"

namespace unistore {
namespace pgrid {
namespace {

using net::ChurnPlane;
using net::ChurnSchedule;
using net::PeerId;
using storage::MemEnv;

constexpr sim::SimTime kMs = sim::kMicrosPerMilli;
constexpr sim::SimTime kS = sim::kMicrosPerSecond;

Entry MakeEntry(const std::string& value, uint64_t version = 1) {
  Entry e;
  e.key = OpHash(value);
  e.id = "id-" + value;
  e.version = version;
  return e;
}

// Order-sensitive digest of a store's full logical entry stream.
uint32_t StoreDigest(const LocalStore& store) {
  RunChecksum sum;
  store.ScanAll([&sum](const EntryView& e) {
    sum.Add(e);
    return true;
  });
  return sum.crc;
}

// OpHash is order-preserving, so spreading a batch across the key space
// needs a varying leading character (same trick the benches use).
std::vector<Entry> MakeBatch(const std::string& tag, size_t count) {
  std::vector<Entry> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string value(1, static_cast<char>(32 + (i * 37) % 224));
    value += tag + "-" + std::to_string(i);
    out.push_back(MakeEntry(value));
  }
  return out;
}

// --- The liveness half: pure windows -----------------------------------------

TEST(ChurnPlaneTest, WindowsArePureFunctionsOfTime) {
  ChurnSchedule schedule;
  schedule.Crash(1, 10, /*restart_at=*/20)
      .Crash(2, 5)  // Never restarts.
      .Leave(3, 30, /*drain_us=*/8)
      .Join(50);
  // The joiner id is normally assigned by InstallChurn; pin it here.
  schedule.joins[0].peer = 4;
  EXPECT_EQ(schedule.EventCount(), 5u);  // Crash+restart counts two.

  ChurnPlane plane(schedule);
  // Crash window [10, 20): down inside, up at both edges' outsides.
  EXPECT_FALSE(plane.Down(9, 1));
  EXPECT_TRUE(plane.Down(10, 1));
  EXPECT_TRUE(plane.Down(19, 1));
  EXPECT_FALSE(plane.Down(20, 1));  // Restart edge: reachable again.
  // Permanent crash: down forever from `at`.
  EXPECT_FALSE(plane.Down(4, 2));
  EXPECT_TRUE(plane.Down(5, 2));
  EXPECT_TRUE(plane.Down(1'000'000'000, 2));
  // Leave: reachable through the drain window, down from at+drain on.
  EXPECT_FALSE(plane.Down(30, 3));
  EXPECT_FALSE(plane.Down(37, 3));
  EXPECT_TRUE(plane.Down(38, 3));
  // Join: down until `at`.
  EXPECT_TRUE(plane.Down(0, 4));
  EXPECT_TRUE(plane.Down(49, 4));
  EXPECT_FALSE(plane.Down(50, 4));
  // Unscripted peers are never down.
  EXPECT_FALSE(plane.Down(15, 0));
  EXPECT_FALSE(plane.Down(15, 99));
}

// --- Crash-restart recovery --------------------------------------------------

// A memory-backed peer restarts empty and catches up on everything —
// including a write acknowledged while it was down — via manifest-delta
// repair. The transport counts the traffic churn swallowed.
TEST(ChurnLifecycleTest, MemoryRestartCatchesUpThroughRepair) {
  OverlayOptions options;
  options.seed = 7;
  options.replication = 2;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 4;
  Overlay overlay(options);
  overlay.AddPeers(4);
  overlay.BuildBalanced();
  auto& sim = overlay.scheduler();

  for (const Entry& e : MakeBatch("pre", 40)) overlay.InsertDirect(e);

  // Find a replica pair: the victim crashes over [1 s, 4 s).
  std::vector<PeerId> group;
  for (PeerId p = 0; p < overlay.size(); ++p) {
    if (overlay.peer(p)->path() == overlay.peer(0)->path()) group.push_back(p);
  }
  ASSERT_EQ(group.size(), 2u);
  const PeerId victim = group[1];
  const PeerId partner = group[0];

  ChurnSchedule churn;
  churn.Crash(victim, 1 * kS, /*restart_at=*/4 * kS);
  overlay.InstallChurn(churn);

  // A write into the victim's region at t = 2 s: it must be acknowledged
  // by the surviving partner, and the rumor push toward the down victim
  // is churn-dropped.
  Entry during = MakeEntry("during-crash-0");
  for (int i = 1; !overlay.peer(partner)->path().IsPrefixOf(during.key); ++i) {
    during = MakeEntry("during-crash-" + std::to_string(i));
  }
  std::optional<Status> ack;
  // Initiated from the other region, so the write actually routes.
  PeerId initiator = net::kNoPeer;
  for (PeerId p = 0; p < overlay.size(); ++p) {
    if (overlay.peer(p)->path() != overlay.peer(partner)->path()) {
      initiator = p;
      break;
    }
  }
  ASSERT_NE(initiator, net::kNoPeer);
  sim.ScheduleAt(2 * kS, [&] {
    overlay.peer(initiator)->Insert(during,
                                    [&](Status s) { ack = std::move(s); });
  });
  sim.RunUntilIdle();

  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok()) << ack->ToString();
  EXPECT_EQ(overlay.peer(victim)->counters().restarts, 1u);
  EXPECT_GT(overlay.peer(victim)->counters().last_restart_catchup_us, 0u);
  // Byte-identical convergence: the restarted (memory, hence empty) store
  // pulled back everything, the mid-crash write included.
  EXPECT_EQ(StoreDigest(overlay.peer(victim)->store()),
            StoreDigest(overlay.peer(partner)->store()));
  auto found = overlay.LookupSync(victim, during.key);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_FALSE(found->entries.empty()) << "restarted peer lost the write";
  EXPECT_GT(overlay.transport().stats().messages_lost_churn, 0u)
      << "churn plane never dropped anything";
}

// A disk-backed peer replays its flush manifest on restart (crash
// recovery, DESIGN.md §6), so catch-up repair matches the recovered runs
// instead of re-fetching them.
TEST(ChurnLifecycleTest, DiskRestartReplaysManifest) {
  MemEnv env;
  OverlayOptions options;
  options.seed = 11;
  options.replication = 2;
  options.peer.storage.backend = LocalStoreOptions::Backend::kDisk;
  options.peer.storage.data_dir = "db";
  options.peer.storage.env = &env;
  options.peer.storage.memtable_flush_threshold = 8;
  Overlay overlay(options);
  overlay.AddPeers(2);
  overlay.BuildBalanced();

  for (const Entry& e : MakeBatch("durable", 64)) overlay.InsertDirect(e);
  const uint32_t before = StoreDigest(overlay.peer(1)->store());
  ASSERT_EQ(StoreDigest(overlay.peer(0)->store()), before);

  std::optional<Status> caught_up;
  overlay.peer(1)->Restart([&](Status s) { caught_up = std::move(s); });
  overlay.scheduler().RunUntil([&] { return caught_up.has_value(); });

  ASSERT_TRUE(caught_up.has_value());
  EXPECT_TRUE(caught_up->ok()) << caught_up->ToString();
  EXPECT_EQ(StoreDigest(overlay.peer(1)->store()), before)
      << "manifest replay + catch-up diverged from the pre-crash state";
  // The manifest-delta savings: recovered runs matched by (count,
  // checksum), so the catch-up fetched at most the donor's memtable.
  EXPECT_GT(overlay.peer(1)->counters().repair_runs_matched, 0u)
      << "disk restart re-fetched runs it had already recovered";
  EXPECT_EQ(overlay.peer(1)->counters().repair_runs_fetched, 0u);
}

// Restart preserves identity but not volatile state: in-flight
// initiator-side operations of every kind fail once with Unavailable
// instead of hanging, and no key-set state survives.
TEST(ChurnLifecycleTest, RestartFailsInFlightOperations) {
  OverlayOptions options;
  options.seed = 13;
  options.replication = 2;
  Overlay overlay(options);
  overlay.AddPeers(4);
  overlay.BuildBalanced();

  for (const Entry& e : MakeBatch("rows", 20)) overlay.InsertDirect(e);
  Peer* initiator = overlay.peer(0);
  std::vector<Entry> foreign;  // Owned by the other region.
  for (const Entry& e : MakeBatch("late", 20)) {
    if (!initiator->IsResponsible(e.key)) foreign.push_back(e);
  }
  ASSERT_FALSE(foreign.empty());

  // Start one operation of each kind from peer 0, then restart it before
  // any reply can arrive (no simulation steps in between).
  struct Outcome {
    int calls = 0;
    Status status;
  };
  std::map<std::string, Outcome> outcomes;
  auto record = [&outcomes](const std::string& op, const Status& status) {
    ++outcomes[op].calls;
    outcomes[op].status = status;
  };
  KeyRange full{Key().PadTo(kKeyBits, false), Key().PadTo(kKeyBits, true)};
  initiator->RangeScanSeq(full, [&](Result<RangeResult> r) {
    record("sequential scan", r.status());
  });
  initiator->RangeScanShower(full, [&](Result<RangeResult> r) {
    record("shower scan", r.status());
  });
  initiator->Lookup(foreign.front().key, LookupMode::kExact,
                    [&](Result<LookupResult> r) {
                      record("lookup", r.status());
                    });
  initiator->InsertBatch(foreign,
                         [&](Status s) { record("insert batch", s); });
  ASSERT_TRUE(outcomes.empty()) << "an operation completed locally";
  EXPECT_EQ(initiator->key_sets_in_flight(), 2u);
  initiator->Restart();
  overlay.scheduler().RunUntilIdle();

  EXPECT_EQ(outcomes.size(), 4u) << "an in-flight operation leaked";
  for (const auto& [op, outcome] : outcomes) {
    EXPECT_EQ(outcome.calls, 1) << op;
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable) << op;
  }
  EXPECT_EQ(initiator->key_sets_in_flight(), 0u);
  EXPECT_EQ(initiator->counters().restarts, 1u);
}

// The query layer's restart hook: a Migrate join the restarting peer
// coordinates fails exactly once with Unavailable, and the peer
// coordinates later joins like a peer that never restarted.
TEST(ChurnLifecycleTest, RestartFailsInFlightMigrateJoinOnce) {
  const KeyRange age = triple::AttrRange("age");
  const auto paths = PartitionCoverPaths(age, /*inside_leaves=*/4);
  OverlayOptions options;
  options.seed = 23;
  Overlay overlay(options);
  overlay.AddPeers(paths.size());
  overlay.BuildWithPaths(paths);
  std::vector<std::unique_ptr<exec::QueryService>> services;
  for (size_t i = 0; i < paths.size(); ++i) {
    Peer* peer = overlay.peer(static_cast<PeerId>(i));
    services.push_back(std::make_unique<exec::QueryService>(peer));
    exec::QueryService* service = services.back().get();
    peer->set_restart_hook([service] { service->OnPeerRestart(); });
  }

  constexpr int kSubjects = 24;
  std::vector<exec::Binding> left;
  for (int i = 0; i < kSubjects; ++i) {
    const std::string oid = "p" + std::to_string(i);
    triple::Triple t(oid, "age", triple::Value::Int(20 + i));
    for (auto& entry : triple::EntriesForTriple(t, 1)) {
      overlay.InsertDirect(entry);
    }
    left.push_back({{"a", triple::Value::String(oid)}});
  }
  // Peer 0 lies outside the age partition, so its memory store coming
  // back empty loses none of the rows the join reads.
  size_t coordinator_age_entries = 0;
  overlay.peer(0)->store().ScanRange(age, [&](const EntryView&) {
    ++coordinator_age_entries;
    return true;
  });
  ASSERT_EQ(coordinator_age_entries, 0u);

  vql::TriplePattern pattern;
  pattern.subject = vql::Term::Var("a");
  pattern.predicate = vql::Term::Lit(triple::Value::String("age"));
  pattern.object = vql::Term::Var("g");

  // Restart the coordinator before any envelope reply can arrive.
  int calls = 0;
  std::optional<Result<exec::MigrateResult>> failed;
  services[0]->RunMigrateJoin(pattern, left,
                              [&](Result<exec::MigrateResult> r) {
                                ++calls;
                                failed = std::move(r);
                              });
  overlay.peer(0)->Restart();
  overlay.scheduler().RunUntilIdle();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status().code(), StatusCode::kUnavailable);

  auto migrate = [&](PeerId via) {
    std::optional<Result<exec::MigrateResult>> out;
    services[via]->RunMigrateJoin(
        pattern, left,
        [&out](Result<exec::MigrateResult> r) { out = std::move(r); });
    overlay.scheduler().RunUntil([&out] { return out.has_value(); });
    EXPECT_TRUE(out.has_value());
    return std::move(*out);
  };
  auto restarted = migrate(0);
  auto untouched = migrate(1);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  ASSERT_TRUE(untouched.ok()) << untouched.status().ToString();
  EXPECT_EQ(restarted->rows.size(), static_cast<size_t>(kSubjects));
  EXPECT_EQ(restarted->rows, untouched->rows);
  EXPECT_EQ(calls, 1) << "the failed join's callback ran again";
}

// --- Live joins --------------------------------------------------------------

// A loaded sponsor splits its region: the joiner adopts one half path and
// receives that half's live entries inline.
TEST(ChurnLifecycleTest, JoinSplitsLoadedSponsor) {
  OverlayOptions options;
  options.seed = 17;
  options.peer.split_threshold = 16;
  Overlay overlay(options);
  overlay.AddPeers(2);

  overlay.peer(0)->store().BulkLoad(MakeBatch("split", 48));
  ASSERT_GT(overlay.peer(0)->store().live_size(),
            options.peer.split_threshold);

  std::optional<Status> joined;
  overlay.peer(1)->JoinVia(0, [&](Status s) { joined = std::move(s); });
  overlay.scheduler().RunUntil([&] { return joined.has_value(); });

  ASSERT_TRUE(joined.has_value());
  ASSERT_TRUE(joined->ok()) << joined->ToString();
  EXPECT_EQ(overlay.peer(0)->path().bits(), "1");
  EXPECT_EQ(overlay.peer(1)->path().bits(), "0");
  EXPECT_EQ(overlay.peer(1)->counters().joins_completed, 1u);
  // The region's data divided exactly along the split.
  EXPECT_GT(overlay.peer(1)->store().live_size(), 0u);
  overlay.peer(0)->store().ScanAll([&](const EntryView& e) {
    EXPECT_EQ(e.key.Prefix(1), overlay.peer(0)->path());
    return true;
  });
  overlay.peer(1)->store().ScanAll([&](const EntryView& e) {
    EXPECT_EQ(e.key.Prefix(1), overlay.peer(1)->path());
    return true;
  });
  // The sponsor can route into the half it gave away.
  const Key joiner_key = overlay.peer(1)->path();
  ASSERT_FALSE(
      overlay.peer(0)->IsResponsible(joiner_key.PadTo(kKeyBits, false)));
  EXPECT_EQ(overlay.peer(0)->routing().RefsAt(0), std::vector<PeerId>{1});
}

// An unloaded sponsor adopts the joiner into its replica group; the
// joiner copies the path and catches up via manifest-delta repair.
TEST(ChurnLifecycleTest, JoinAdoptsIntoReplicaGroup) {
  OverlayOptions options;
  options.seed = 19;
  Overlay overlay(options);
  overlay.AddPeers(2);
  overlay.peer(0)->SetPath(Key::FromBits("0"));
  std::vector<Entry> rows;
  for (const Entry& e : MakeBatch("adopt", 40)) {
    if (overlay.peer(0)->path().IsPrefixOf(e.key)) rows.push_back(e);
  }
  ASSERT_GE(rows.size(), 10u);
  overlay.peer(0)->store().BulkLoad(rows);

  std::optional<Status> joined;
  overlay.peer(1)->JoinVia(0, [&](Status s) { joined = std::move(s); });
  overlay.scheduler().RunUntil([&] { return joined.has_value(); });

  ASSERT_TRUE(joined.has_value());
  ASSERT_TRUE(joined->ok()) << joined->ToString();
  EXPECT_EQ(overlay.peer(1)->path().bits(), "0");
  EXPECT_EQ(overlay.peer(1)->counters().joins_completed, 1u);
  // Group linked both ways, data converged byte-identically.
  auto r0 = overlay.peer(0)->routing().replicas();
  auto r1 = overlay.peer(1)->routing().replicas();
  EXPECT_NE(std::find(r0.begin(), r0.end(), PeerId{1}), r0.end());
  EXPECT_NE(std::find(r1.begin(), r1.end(), PeerId{0}), r1.end());
  EXPECT_EQ(StoreDigest(overlay.peer(1)->store()),
            StoreDigest(overlay.peer(0)->store()));
}

// --- Graceful leave ----------------------------------------------------------

// The leaver hands its full live set to the replica group inside the
// drain window — covering the memtable delta a crash would strand.
TEST(ChurnLifecycleTest, GracefulLeaveHandsOffLiveEntries) {
  OverlayOptions options;
  options.seed = 23;
  Overlay overlay(options);
  overlay.AddPeers(4);
  overlay.BuildWithPaths({"0", "1"});

  // A delta only the leaver holds (applied locally, never replicated).
  std::vector<Entry> delta;
  for (const Entry& e : MakeBatch("leave", 30)) {
    if (overlay.peer(0)->path().IsPrefixOf(e.key)) delta.push_back(e);
  }
  ASSERT_GE(delta.size(), 5u);
  for (const Entry& e : delta) overlay.peer(0)->ApplyLocal(e);
  ASSERT_NE(StoreDigest(overlay.peer(0)->store()),
            StoreDigest(overlay.peer(2)->store()));

  overlay.peer(0)->GracefulLeave();
  overlay.scheduler().RunUntilIdle();

  EXPECT_EQ(overlay.peer(0)->counters().leaves_completed, 1u);
  EXPECT_EQ(overlay.peer(0)->counters().handoff_entries, delta.size());
  EXPECT_EQ(StoreDigest(overlay.peer(2)->store()),
            StoreDigest(overlay.peer(0)->store()))
      << "the replica did not absorb the leaver's delta";
}

// --- Replica re-protection ---------------------------------------------------

// The guard's failure detector confirms a permanently crashed replica
// (consecutive probe failures), and re-protection recruits a surplus peer
// from another group: it adopts the path, hands its old copy to an heir,
// and catches up. Every group ends back at the replication target.
TEST(ChurnLifecycleTest, GuardConfirmsFailureAndRecruitsReplacement) {
  OverlayOptions options;
  options.seed = 29;
  options.peer.request_timeout = 200 * kMs;
  options.peer.request_retries = 2;
  options.peer.replication_target = 2;
  options.peer.reprotect_period = 500 * kMs;
  options.peer.reprotect_until = 30 * kS;
  Overlay overlay(options);
  overlay.AddPeers(5);
  overlay.BuildWithPaths({"0", "1"});  // "0": {0,2,4}  "1": {1,3}.

  for (const Entry& e : MakeBatch("guard", 60)) overlay.InsertDirect(e);
  const uint32_t one_digest = StoreDigest(overlay.peer(1)->store());
  ASSERT_EQ(StoreDigest(overlay.peer(3)->store()), one_digest);

  // Peer 1 ("1" group) dies for good at t = 1 s: the group falls to one
  // member, under the target of two.
  ChurnSchedule churn;
  churn.Crash(1, 1 * kS);
  overlay.InstallChurn(churn);
  overlay.scheduler().RunUntilIdle();

  Peer* survivor = overlay.peer(3);
  EXPECT_GE(survivor->counters().replicas_confirmed_dead, 1u)
      << "the failure detector never confirmed the crash";
  EXPECT_EQ(survivor->counters().recruits_completed, 1u)
      << "re-protection never recruited";

  // Exactly one former "0" peer moved over; both groups are at target.
  std::vector<PeerId> zero_group, one_group;
  for (PeerId p : {PeerId{0}, PeerId{2}, PeerId{4}}) {
    (overlay.peer(p)->path().bits() == "0" ? zero_group : one_group)
        .push_back(p);
  }
  ASSERT_EQ(one_group.size(), 1u) << "expected exactly one recruit";
  EXPECT_EQ(zero_group.size(), 2u);
  const PeerId recruit = one_group[0];
  EXPECT_EQ(overlay.peer(recruit)->path().bits(), "1");

  // The recruit converged on the region byte-identically, and the
  // survivor linked it.
  EXPECT_EQ(StoreDigest(overlay.peer(recruit)->store()),
            StoreDigest(survivor->store()));
  auto linked = survivor->routing().replicas();
  EXPECT_NE(std::find(linked.begin(), linked.end(), recruit), linked.end());

  // The donor group noticed the departure (probe answered from a foreign
  // path) and unlinked the recruit without confirming it dead.
  for (PeerId p : zero_group) {
    auto reps = overlay.peer(p)->routing().replicas();
    EXPECT_EQ(std::find(reps.begin(), reps.end(), recruit), reps.end())
        << "peer " << p << " still links the departed recruit";
  }
  // The abandoned copy reached an heir: the remaining "0" pair converged.
  EXPECT_EQ(StoreDigest(overlay.peer(zero_group[0])->store()),
            StoreDigest(overlay.peer(zero_group[1])->store()));
}

// --- Stale replica caches across churn (the advertised-replica race) ---------

// A replica-group advert steers the initiator to round-robin across the
// owner's replica group. When an advertised replica crashes and is later
// replaced, every lookup issued against the stale advert must still
// succeed — retry + suspicion fail over to a live member; the advert
// cannot wedge the walk.
TEST(ChurnLifecycleTest, StaleHotAdvertFailsOverWhenReplicaCrashes) {
  OverlayOptions options;
  options.seed = 31;
  options.peer.request_timeout = 200 * kMs;
  options.peer.request_retries = 4;
  Overlay overlay(options);
  overlay.AddPeers(4);
  overlay.BuildWithPaths({"0", "1"});  // "0": {0,2}  "1": {1,3}.

  for (const Entry& e : MakeBatch("hot", 40)) overlay.InsertDirect(e);
  // A key served by the "0" group, looked up from the "1" side.
  Entry hot = MakeEntry("hot-0");
  for (const Entry& e : MakeBatch("hot", 40)) {
    if (overlay.peer(0)->path().IsPrefixOf(e.key)) {
      hot = e;
      break;
    }
  }
  ASSERT_TRUE(overlay.peer(0)->path().IsPrefixOf(hot.key));

  // One advertised member of the "0" group crashes at 2 s and is replaced
  // (restarted) at 6 s — mid-stream for the lookup train below.
  ChurnSchedule churn;
  churn.Crash(2, 2 * kS, /*restart_at=*/6 * kS);
  overlay.InstallChurn(churn);

  // 40 lookups, 200 ms apart, from t = 0.1 s to 8 s: the first reply
  // brings the advert, the rest keep hitting it across the crash window
  // and the replacement.
  auto& sim = overlay.scheduler();
  std::vector<Status> outcomes;
  for (int i = 0; i < 40; ++i) {
    sim.ScheduleAt(100 * kMs + i * 200 * kMs, [&, i] {
      overlay.peer(1)->Lookup(
          hot.key, LookupMode::kExact, [&](Result<LookupResult> r) {
            outcomes.push_back(r.ok() && !r->entries.empty()
                                   ? Status::OK()
                                   : (r.ok() ? Status::NotFound("empty")
                                             : r.status()));
          });
    });
  }
  sim.RunUntilIdle();

  ASSERT_EQ(outcomes.size(), 40u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok())
        << "lookup " << i << " failed across the advert's replica crash: "
        << outcomes[i].ToString();
  }
  // The fan-out path actually engaged, and churn actually dropped traffic
  // (the stale advert really did point at a down peer at some point).
  EXPECT_GT(overlay.peer(1)->counters().fanout_redirects, 0u)
      << "no lookup was ever steered by the advert";
  EXPECT_GT(overlay.transport().stats().messages_lost_churn, 0u);
  EXPECT_EQ(overlay.peer(2)->counters().restarts, 1u);
}

// --- The compiled schedule end to end ---------------------------------------

// InstallChurn compiles a mixed schedule — crash+restart, a graceful
// leave, and an auto-sponsored join — into lifecycle events; the
// aggregated stats expose every transition.
TEST(ChurnLifecycleTest, InstallChurnCompilesMixedSchedule) {
  OverlayOptions options;
  options.seed = 37;
  options.replication = 2;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 4;
  Overlay overlay(options);
  overlay.AddPeers(8);
  overlay.BuildBalanced();

  for (const Entry& e : MakeBatch("mixed", 80)) overlay.InsertDirect(e);

  ChurnSchedule churn;
  churn.Crash(5, 1 * kS, /*restart_at=*/3 * kS)
      .Leave(6, 2 * kS, /*drain_us=*/500 * kMs)
      .Join(4 * kS);  // Sponsor auto-picked (deepest, most loaded).
  ASSERT_EQ(churn.EventCount(), 4u);

  auto joiners = overlay.InstallChurn(churn);
  ASSERT_EQ(joiners.size(), 1u);
  EXPECT_EQ(joiners[0], 8u) << "joiner should be a freshly registered peer";
  overlay.scheduler().RunUntilIdle();

  auto stats = overlay.AggregateLifecycleStats();
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.leaves_completed, 1u);
  EXPECT_EQ(stats.joins_completed, 1u) << stats.ToString();
  EXPECT_GT(stats.max_restart_catchup_us, 0u);
  EXPECT_NE(stats.ToString().find("restarts=1"), std::string::npos);
  // The joiner ended up serving a region.
  EXPECT_GT(overlay.peer(joiners[0])->path().size(), 0u);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
