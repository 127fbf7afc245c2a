// Chaos campaign (DESIGN.md §10): compaction, bulk load, envelope walks
// and replica repair all running concurrently under a scripted mixture of
// partition/heal, asymmetric latency jitter, payload corruption and
// duplication. The campaign pins the degradation invariants:
//
//   1. No lost acknowledged writes — every insert whose callback reported
//      OK is readable after the network heals and replicas repair.
//   2. Byte-identical convergence — after heal + anti-entropy, the stores
//      of every replica pair inside the partition cover have identical
//      logical entry streams (order-sensitive digest equality).
//   3. No walk stuck past its budget — the mid-chaos envelope walk
//      finishes within its relaunch budget, and if it is incomplete it
//      carries an explicit coverage-gap status.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/query_service.h"
#include "net/churn_plane.h"
#include "net/fault_plane.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"
#include "pgrid/run_summary.h"
#include "triple/index.h"

namespace unistore {
namespace pgrid {
namespace {

constexpr size_t kInsideLeaves = 4;
constexpr sim::SimTime kMs = sim::kMicrosPerMilli;
constexpr sim::SimTime kS = sim::kMicrosPerSecond;

// Order-sensitive digest of a store's full logical entry stream
// (tombstones included): equal digests <=> byte-identical scan streams.
uint32_t StoreDigest(const LocalStore& store) {
  RunChecksum sum;
  store.ScanAll([&sum](const EntryView& e) {
    sum.Add(e);
    return true;
  });
  return sum.crc;
}

triple::Triple AgeTriple(const std::string& subject, int value) {
  return triple::Triple(subject, "age", triple::Value::Int(value));
}

TEST(ChaosCampaignTest, InvariantsHoldUnderScriptedFaultMixture) {
  const auto paths = PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), kInsideLeaves);
  const size_t num_paths = paths.size();
  const size_t outside = num_paths - kInsideLeaves;
  ASSERT_GE(outside, 3u);

  OverlayOptions options;
  options.seed = 4242;
  options.replication = 2;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 5;

  Overlay overlay(options);
  overlay.AddPeers(2 * num_paths);
  overlay.BuildWithPaths(paths);

  // The partition victim: one replica of the leaf serving the "age"
  // attribute partition — the peer whose isolation actually hides rows
  // and diverges a replica pair. Its partner keeps serving.
  const auto serving = overlay.ResponsiblePeers(
      triple::AttrValueKey("age", triple::Value::Int(20)));
  ASSERT_EQ(serving.size(), 2u) << "expected a replica pair";
  const net::PeerId victim_a = std::max(serving[0], serving[1]);
  const net::PeerId victim_b = std::min(serving[0], serving[1]);
  ASSERT_EQ(overlay.peer(victim_a)->path().bits(),
            overlay.peer(victim_b)->path().bits());

  // The scripted fault plane: the victim replica is cut off from everyone
  // for [1 s, 4 s); peer 0's outbound links are slow and jittery for the
  // whole run; corruption and duplication bombard every link while the
  // partition is up, then stop so the repair phase measures convergence,
  // not luck.
  net::FaultSchedule faults;
  faults.PartitionPair(1 * kS, 4 * kS, victim_a, net::kAnyPeer);
  faults.Delay(0, net::kFaultForever, 0, net::kAnyPeer,
               /*delay_us=*/1500, /*jitter_us=*/800);
  faults.Corrupt(0, 4 * kS, net::kAnyPeer, net::kAnyPeer, 0.02);
  faults.Duplicate(0, 4 * kS, net::kAnyPeer, net::kAnyPeer, 0.05);
  overlay.transport().SetFaultSchedule(faults);

  std::vector<std::unique_ptr<exec::QueryService>> services;
  for (size_t i = 0; i < overlay.size(); ++i) {
    services.push_back(std::make_unique<exec::QueryService>(
        overlay.peer(static_cast<net::PeerId>(i))));
  }
  // Baseline rows so walks have substance from t = 0.
  for (int i = 0; i < 24; ++i) {
    for (auto& entry :
         triple::EntriesForTriple(AgeTriple("base" + std::to_string(i),
                                            20 + i),
                                  1)) {
      overlay.InsertDirect(entry);
    }
  }

  auto& sim = overlay.scheduler();

  // --- Writes: only callbacks that report OK count as acknowledged. ----
  std::vector<std::string> acked_subjects;
  std::vector<Key> acked_keys;
  auto track_ack = [&acked_subjects, &acked_keys](
                       const triple::Triple& t,
                       const std::vector<Entry>& entries) {
    acked_subjects.push_back(t.oid);
    for (const auto& e : entries) acked_keys.push_back(e.key);
  };

  // Bulk load through the protocol at t = 100 ms (corruption and
  // duplication already active).
  sim.ScheduleAt(100 * kMs, [&] {
    std::vector<triple::Triple> triples;
    std::vector<Entry> entries;
    for (int i = 0; i < 30; ++i) {
      triples.push_back(AgeTriple("bulk" + std::to_string(i), 100 + i));
      for (auto& e : triple::EntriesForTriple(triples.back(), 1)) {
        entries.push_back(std::move(e));
      }
    }
    overlay.peer(0)->InsertBatch(
        entries, [&, triples, entries](Status status) {
          if (status.ok()) {
            for (const auto& t : triples) track_ack(t, {});
            for (const auto& e : entries) acked_keys.push_back(e.key);
          }
        });
  });

  // Single-row inserts every 200 ms across the partition window, from
  // rotating outside initiators (never the victim).
  for (int i = 0; i < 25; ++i) {
    sim.ScheduleAt(500 * kMs + i * 200 * kMs, [&, i] {
      auto t = AgeTriple("q" + std::to_string(i), 200 + i);
      auto entries = triple::EntriesForTriple(t, 1);
      auto initiator = static_cast<net::PeerId>(i % outside);
      size_t remaining = entries.size();
      auto ok_all = std::make_shared<bool>(true);
      auto left = std::make_shared<size_t>(remaining);
      for (auto& e : entries) {
        overlay.peer(initiator)->Insert(
            e, [&, t, entries, ok_all, left](Status status) {
              if (!status.ok()) *ok_all = false;
              if (--*left == 0 && *ok_all) track_ack(t, entries);
            });
      }
    });
  }

  // Mid-chaos envelope walk at t = 2 s (partition up): must finish within
  // its relaunch budget and flag any gap explicitly.
  std::optional<Result<exec::MigrateResult>> mid_walk;
  sim::SimTime mid_walk_finished = 0;
  sim.ScheduleAt(2 * kS, [&] {
    vql::TriplePattern pattern;
    pattern.subject = vql::Term::Var("a");
    pattern.predicate = vql::Term::Lit(triple::Value::String("age"));
    pattern.object = vql::Term::Var("o");
    std::vector<exec::Binding> left;
    for (int i = 0; i < 24; ++i) {
      left.push_back(
          {{"a", triple::Value::String("base" + std::to_string(i))}});
    }
    services[1]->RunMigrateJoin(
        pattern, left, cost::MigrateBatching{},
        [&](Result<exec::MigrateResult> r) {
          mid_walk = std::move(r);
          mid_walk_finished = sim.Now();
        });
  });

  // Compactions at t = 3 s, while the partition is still up and inserts
  // keep flowing: the serving partner of the partitioned replica compacts
  // its store under load.
  sim.ScheduleAt(3 * kS, [&] {
    overlay.peer(victim_b)->store().Compact();
    overlay.peer(victim_a)->store().Compact();
  });

  // Anti-entropy after the heal: both directions per data-holding replica
  // pair, so whichever side a chaotic write landed on, the pair converges.
  std::vector<std::pair<net::PeerId, net::PeerId>> repair_pairs;
  std::vector<Status> repair_statuses;
  bool repairs_launched = false;
  sim.ScheduleAt(6 * kS, [&] {
    for (size_t p = 0; p < num_paths; ++p) {
      auto a = static_cast<net::PeerId>(p);
      auto b = static_cast<net::PeerId>(p + num_paths);
      if (overlay.peer(a)->store().total_size() == 0 &&
          overlay.peer(b)->store().total_size() == 0) {
        continue;
      }
      repair_pairs.emplace_back(a, b);
      overlay.peer(a)->PullFromReplica(
          [&](Status s) { repair_statuses.push_back(s); });
    }
    repairs_launched = true;
  });
  sim.ScheduleAt(7 * kS, [&] {
    for (const auto& pair : repair_pairs) {
      overlay.peer(pair.second)->PullFromReplica(
          [&](Status s) { repair_statuses.push_back(s); });
    }
  });

  sim.RunUntil([&] {
    return repairs_launched &&
           repair_statuses.size() == 2 * repair_pairs.size() &&
           mid_walk.has_value();
  });
  sim.RunUntilIdle();

  // --- Invariant 3: no walk stuck past its budget. ----------------------
  ASSERT_TRUE(mid_walk.has_value()) << "mid-chaos walk never finished";
  ASSERT_TRUE(mid_walk->ok()) << mid_walk->status().ToString();
  // (request_retries + 1) chains of request_timeout each, plus generous
  // slack for chunking and local joins — far below the 20 s scan deadline.
  EXPECT_LT(mid_walk_finished - 2 * kS, 10 * kS)
      << "walk outlived its relaunch budget";
  if (!(*mid_walk)->complete) {
    EXPECT_FALSE((*mid_walk)->coverage_gaps.empty())
        << "incomplete result without an explicit coverage gap";
  }

  // --- Invariant 2: byte-identical convergence after heal + repair. ----
  ASSERT_FALSE(repair_pairs.empty()) << "no replica pair ever held data";
  ASSERT_EQ(repair_statuses.size(), 2 * repair_pairs.size());
  for (const auto& s : repair_statuses) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  for (const auto& [a, b] : repair_pairs) {
    EXPECT_EQ(StoreDigest(overlay.peer(a)->store()),
              StoreDigest(overlay.peer(b)->store()))
        << "replica pair for path " << overlay.peer(a)->path().bits()
        << " did not converge";
  }

  // --- Invariant 1: no lost acknowledged writes. ------------------------
  ASSERT_FALSE(acked_keys.empty())
      << "chaos was so severe nothing was ever acknowledged";
  for (const auto& key : acked_keys) {
    auto found = overlay.LookupSync(1, key);
    ASSERT_TRUE(found.ok())
        << "acked key unreadable after heal: " << found.status().ToString();
    EXPECT_FALSE(found->entries.empty()) << "acked write lost";
  }

  // Post-heal walk over every acknowledged subject: complete, no gaps,
  // every acked row present.
  if (!acked_subjects.empty()) {
    std::sort(acked_subjects.begin(), acked_subjects.end());
    acked_subjects.erase(
        std::unique(acked_subjects.begin(), acked_subjects.end()),
        acked_subjects.end());
    vql::TriplePattern pattern;
    pattern.subject = vql::Term::Var("a");
    pattern.predicate = vql::Term::Lit(triple::Value::String("age"));
    pattern.object = vql::Term::Var("o");
    std::vector<exec::Binding> left;
    for (const auto& s : acked_subjects) {
      left.push_back({{"a", triple::Value::String(s)}});
    }
    std::optional<Result<exec::MigrateResult>> final_walk;
    services[0]->RunMigrateJoin(
        pattern, left, cost::MigrateBatching{},
        [&](Result<exec::MigrateResult> r) { final_walk = std::move(r); });
    sim.RunUntil([&] { return final_walk.has_value(); });
    ASSERT_TRUE(final_walk.has_value());
    ASSERT_TRUE(final_walk->ok()) << final_walk->status().ToString();
    EXPECT_TRUE((*final_walk)->complete);
    EXPECT_TRUE((*final_walk)->coverage_gaps.empty());
    std::vector<std::string> seen;
    for (const auto& row : (*final_walk)->rows) {
      auto it = row.find("a");
      if (it != row.end()) seen.push_back(it->second.AsString());
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (const auto& s : acked_subjects) {
      EXPECT_TRUE(std::binary_search(seen.begin(), seen.end(), s))
          << "acked subject missing from post-heal walk: " << s;
    }
  }

  // The chaos actually engaged: every scripted fault left a footprint,
  // and the unified retry discipline was exercised.
  auto stats = overlay.transport().stats();
  EXPECT_GT(stats.messages_lost_partition, 0u);
  EXPECT_GT(stats.messages_corrupted, 0u);
  EXPECT_GT(stats.messages_duplicated, 0u);
  uint64_t retries = 0;
  for (const auto& [policy, count] : stats.retries_by_policy) {
    retries += count;
  }
  EXPECT_GT(retries, 0u) << "no retry policy ever fired under chaos";
}

// --- Churn + faults: the full lifecycle campaign (DESIGN.md §11) -------------
//
// Twenty scripted lifecycle events over 64 peers (16 regions x 4
// replicas) — six crash-restart cycles, two permanent crashes
// concentrated on one region, three graceful leaves, three live joins —
// mixed with the PR-9 fault mixture (partition, latency jitter,
// corruption, duplication) and a write stream threaded through the churn
// window. End-state invariants:
//
//   1. No lost acknowledged writes, even with owners crashing,
//      draining and joining mid-stream.
//   2. Every region is back at the replication target with live members
//      (the double-crash region re-protected through recruiting).
//   3. Byte-identical convergence inside every region after the
//      anti-entropy sweeps.
//   4. Every restarted peer serves its pre-crash keys itself.
TEST(ChaosCampaignTest, ChurnMixedWithFaultsEndsReprotected) {
  constexpr size_t kRegions = 16;
  std::vector<std::string> paths;
  GenerateBalancedPaths(kRegions, "", &paths);
  ASSERT_EQ(paths.size(), kRegions);

  OverlayOptions options;
  options.seed = 9091;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 5;
  options.peer.replication_target = 3;
  options.peer.reprotect_period = 500 * kMs;
  options.peer.reprotect_until = 20 * kS;
  // Confirming a failure takes kFailureConfirmProbes (three) consecutive
  // failed probes: long enough that the 800 ms partition below reads as a
  // blip, short enough that the permanent crashes are confirmed and
  // re-protected well inside the guard horizon.

  Overlay overlay(options);
  overlay.AddPeers(4 * kRegions);  // Region g: {g, g+16, g+32, g+48}.
  overlay.BuildWithPaths(paths);

  // Baseline rows in every region — the "pre-crash keys" the restarted
  // peers must keep serving.
  std::vector<Entry> baseline;
  for (int i = 0; i < 400; ++i) {
    std::string value(1, static_cast<char>((i * 37) % 256));
    value += "camp-" + std::to_string(i);
    Entry e;
    e.key = OpHash(value);
    e.id = "id";
    e.version = 1;
    baseline.push_back(e);
    overlay.InsertDirect(baseline.back());
  }

  // The lifecycle script: 6*2 + 2 + 3 + 3 = 20 events. Crash-restarts
  // spread over six distinct regions; both permanent crashes hit region 7
  // ({7,23,39,55} drops to two live members — under target, so the guard
  // must recruit); the leavers come from three more regions (which land
  // exactly at target, so their groups are never recruiting candidates).
  const std::vector<net::PeerId> restarters = {1, 18, 35, 52, 5, 22};
  net::ChurnSchedule churn;
  churn.Crash(1, 1 * kS, /*restart_at=*/3 * kS)
      .Crash(18, 1200 * kMs, /*restart_at=*/3200 * kMs)
      .Crash(35, 1500 * kMs, /*restart_at=*/3500 * kMs)
      .Crash(52, 1800 * kMs, /*restart_at=*/3800 * kMs)
      .Crash(5, 2 * kS, /*restart_at=*/4 * kS)
      .Crash(22, 2200 * kMs, /*restart_at=*/4200 * kMs)
      .Crash(39, 2500 * kMs)  // Never restarts.
      .Crash(55, 2800 * kMs)  // Never restarts.
      .Leave(10, 1 * kS, /*drain_us=*/300 * kMs)
      .Leave(27, 1300 * kMs, /*drain_us=*/300 * kMs)
      .Leave(44, 1600 * kMs, /*drain_us=*/300 * kMs)
      .Join(4500 * kMs)
      .Join(5 * kS)
      .Join(5500 * kMs);
  ASSERT_EQ(churn.EventCount(), 20u);
  const auto joiners = overlay.InstallChurn(churn);
  ASSERT_EQ(joiners.size(), 3u);

  // The PR-9 fault mixture on top: peer 33 shares a region with crashing
  // peer 1 and is partitioned across the crash onset (fault + churn in
  // one group); every link corrupts and duplicates until t = 4 s; peer
  // 3's outbound links stay slow and jittery for the whole run.
  net::FaultSchedule faults;
  faults.PartitionPair(1 * kS, 1800 * kMs, 33, net::kAnyPeer);
  faults.Delay(0, net::kFaultForever, 3, net::kAnyPeer,
               /*delay_us=*/1500, /*jitter_us=*/800);
  faults.Corrupt(0, 4 * kS, net::kAnyPeer, net::kAnyPeer, 0.02);
  faults.Duplicate(0, 4 * kS, net::kAnyPeer, net::kAnyPeer, 0.05);
  overlay.transport().SetFaultSchedule(faults);

  auto& sim = overlay.scheduler();

  // Writes threaded through the churn window, from initiators that are
  // never scripted down. Only OK callbacks count as acknowledged.
  const std::vector<net::PeerId> initiators = {8, 9, 11, 13, 14, 15};
  std::vector<Key> acked_keys;
  for (int i = 0; i < 30; ++i) {
    sim.ScheduleAt(500 * kMs + i * 200 * kMs, [&, i] {
      std::string value(1, static_cast<char>((i * 53) % 256));
      value += "live-" + std::to_string(i);
      Entry e;
      e.key = OpHash(value);
      e.id = "id";
      e.version = 1;
      overlay.peer(initiators[i % initiators.size()])
          ->Insert(e, [&acked_keys, e](Status status) {
            if (status.ok()) acked_keys.push_back(e.key);
          });
    });
  }

  // Anti-entropy sweeps after the churn settles: every live member pulls,
  // three rounds, so every region converges regardless of which member a
  // chaotic write or a hand-off landed on.
  auto alive_peers = [&] {
    std::vector<net::PeerId> out;
    for (net::PeerId p = 0; p < overlay.size(); ++p) {
      if (overlay.IsAlive(p) && overlay.peer(p)->path().size() > 0) {
        out.push_back(p);
      }
    }
    return out;
  };
  for (sim::SimTime at : {8 * kS, 9 * kS, 10 * kS}) {
    sim.ScheduleAt(at, [&, alive_peers] {
      for (net::PeerId p : alive_peers()) {
        overlay.peer(p)->PullFromReplica([](Status) {});
      }
    });
  }

  sim.RunUntilIdle();

  // --- The lifecycle actually ran, and left its footprint. --------------
  auto lifecycle = overlay.AggregateLifecycleStats();
  EXPECT_EQ(lifecycle.restarts, restarters.size()) << lifecycle.ToString();
  EXPECT_EQ(lifecycle.leaves_completed, 3u);
  EXPECT_EQ(lifecycle.joins_completed, 3u);
  EXPECT_GE(lifecycle.replicas_confirmed_dead, 2u)
      << "the permanent crashes were never confirmed";
  EXPECT_GE(lifecycle.recruits_completed, 1u)
      << "the depleted region was never re-protected";
  auto stats = overlay.transport().stats();
  EXPECT_GT(stats.messages_lost_churn, 0u);
  EXPECT_GT(stats.messages_lost_partition, 0u);
  EXPECT_GT(stats.messages_corrupted, 0u);
  EXPECT_GT(stats.messages_duplicated, 0u);

  // --- Invariant 2: every region back at target, with live members. -----
  std::map<std::string, std::vector<net::PeerId>> regions;
  for (net::PeerId p : alive_peers()) {
    regions[std::string(overlay.peer(p)->path().bits())].push_back(p);
  }
  EXPECT_EQ(regions.size(), kRegions)
      << "a join split a region or a region lost every member";
  for (const auto& [bits, members] : regions) {
    EXPECT_GE(members.size(), options.peer.replication_target)
        << "region " << bits << " is under-protected";
  }

  // --- Invariant 3: byte-identical convergence inside every region. -----
  for (const auto& [bits, members] : regions) {
    const uint32_t digest = StoreDigest(overlay.peer(members[0])->store());
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_EQ(StoreDigest(overlay.peer(members[i])->store()), digest)
          << "region " << bits << " member " << members[i]
          << " diverged from member " << members[0];
    }
  }

  // --- Invariant 1: no lost acknowledged writes. ------------------------
  ASSERT_FALSE(acked_keys.empty())
      << "churn was so severe nothing was ever acknowledged";
  for (const auto& key : acked_keys) {
    auto found = overlay.LookupSync(0, key);
    ASSERT_TRUE(found.ok())
        << "acked key unreadable after the campaign: "
        << found.status().ToString();
    EXPECT_FALSE(found->entries.empty()) << "acked write lost";
  }

  // --- Invariant 4: restarted peers serve their pre-crash keys. ---------
  for (net::PeerId p : restarters) {
    EXPECT_EQ(overlay.peer(p)->counters().restarts, 1u);
    size_t served = 0;
    for (const Entry& e : baseline) {
      if (!overlay.peer(p)->path().IsPrefixOf(e.key)) continue;
      auto found = overlay.LookupSync(p, e.key);
      ASSERT_TRUE(found.ok()) << "restarted peer " << p
                              << " cannot serve a pre-crash key: "
                              << found.status().ToString();
      EXPECT_FALSE(found->entries.empty())
          << "restarted peer " << p << " lost a pre-crash key";
      ++served;
    }
    EXPECT_GT(served, 0u) << "no baseline key fell in peer " << p
                          << "'s region";
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
