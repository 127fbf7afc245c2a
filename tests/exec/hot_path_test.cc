// Hot-path serving layer scenarios (DESIGN.md §8): per-peer admission
// control sheds load without ever losing a query, and replica-group
// fan-out spreads skewed lookups across the replica group.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/datagen.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

namespace unistore {
namespace exec {
namespace {

using triple::Triple;
using triple::Value;

constexpr size_t kLeaves = 8;

std::vector<std::string> HotPaths() {
  return pgrid::PartitionCoverPaths(triple::AttrPrefixRange("age", ""),
                                    kLeaves);
}

std::string SpreadValue(int i) {
  std::string v;
  v.push_back(static_cast<char>(32 + (i * 37) % 224));
  v += "v" + std::to_string(i);
  return v;
}

std::string RowsToString(const std::vector<Binding>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += BindingToString(row);
    out.push_back('\n');
  }
  return out;
}

vql::TriplePattern AgePattern() {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Lit(Value::String("age"));
  p.object = vql::Term::Var("g");
  return p;
}

class AdmissionControlTest : public ::testing::Test {
 protected:
  void Build(const EnvelopeOptions& options, uint64_t seed = 515) {
    const auto paths = HotPaths();
    pgrid::OverlayOptions overlay_options;
    overlay_options.seed = seed;
    overlay_ = std::make_unique<pgrid::Overlay>(overlay_options);
    overlay_->AddPeers(paths.size());
    overlay_->BuildWithPaths(paths);
    services_.clear();
    for (size_t i = 0; i < paths.size(); ++i) {
      services_.push_back(std::make_unique<QueryService>(
          overlay_->peer(static_cast<net::PeerId>(i))));
      services_.back()->set_envelope_options(options);
    }
    for (int i = 0; i < 60; ++i) {
      Triple t("p" + std::to_string(i), "age", Value::String(SpreadValue(i)));
      for (auto& entry : triple::EntriesForTriple(t, 1)) {
        overlay_->InsertDirect(entry);
      }
    }
  }

  std::vector<Binding> Left() {
    std::vector<Binding> left;
    for (int i = 0; i < 60; ++i) {
      left.push_back({{"a", Value::String("p" + std::to_string(i))}});
    }
    return left;
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<QueryService>> services_;
};

TEST_F(AdmissionControlTest, OverloadShedsButNeverLosesQueries) {
  // An expensive local join + queue depth 1: concurrent walks through the
  // same serving peers are guaranteed to collide and shed.
  EnvelopeOptions options;
  options.fanout = 4;
  options.max_bindings_per_envelope = 8;
  options.join_visit_cost_us = 2000;
  options.admission_queue_depth = 1;
  Build(options);

  const size_t kConcurrent = 5;
  std::vector<std::optional<Result<MigrateResult>>> outs(kConcurrent);
  for (size_t q = 0; q < kConcurrent; ++q) {
    services_[q]->RunMigrateJoin(
        AgePattern(), Left(),
        [&outs, q](Result<MigrateResult> r) { outs[q] = std::move(r); });
  }
  overlay_->scheduler().RunUntil([&outs] {
    for (const auto& out : outs) {
      if (!out.has_value()) return false;
    }
    return true;
  });

  // The hard gate: every query completes OK — deferral is flow control,
  // never loss.
  std::string expected;
  uint32_t total_deferrals = 0;
  for (size_t q = 0; q < kConcurrent; ++q) {
    ASSERT_TRUE(outs[q].has_value()) << "query " << q << " never finished";
    ASSERT_TRUE((*outs[q]).ok())
        << "query " << q << ": " << (*outs[q]).status().ToString();
    const std::string rows = RowsToString((*outs[q])->rows);
    if (expected.empty()) expected = rows;
    EXPECT_EQ(rows, expected) << "query " << q << " rows diverged";
    total_deferrals += (*outs[q])->deferrals;
  }
  EXPECT_GT(expected.size(), 0u);

  uint64_t total_sheds = 0;
  uint64_t total_deferred_relaunches = 0;
  for (const auto& service : services_) {
    total_sheds += service->sheds();
    total_deferred_relaunches += service->deferred_relaunches();
  }
  EXPECT_GT(total_sheds, 0u) << "scenario failed to trigger overload";
  EXPECT_EQ(total_deferred_relaunches, total_deferrals);
  EXPECT_GT(total_deferrals, 0u);
}

TEST_F(AdmissionControlTest, DisabledAdmissionControlNeverSheds) {
  EnvelopeOptions options;
  options.fanout = 4;
  options.join_visit_cost_us = 2000;
  options.admission_queue_depth = 0;  // Default: unbounded queue.
  Build(options);

  std::vector<std::optional<Result<MigrateResult>>> outs(3);
  for (size_t q = 0; q < outs.size(); ++q) {
    services_[q]->RunMigrateJoin(
        AgePattern(), Left(),
        [&outs, q](Result<MigrateResult> r) { outs[q] = std::move(r); });
  }
  overlay_->scheduler().RunUntil([&outs] {
    for (const auto& out : outs) {
      if (!out.has_value()) return false;
    }
    return true;
  });
  for (auto& out : outs) {
    ASSERT_TRUE(out.has_value() && out->ok());
    EXPECT_EQ((*out)->deferrals, 0u);
  }
  for (const auto& service : services_) EXPECT_EQ(service->sheds(), 0u);
}

// A peer that restarts while joins sit in its serving queue starts with
// an empty queue, and the slots those joins held are not released a
// second time when their compute time runs out.
TEST_F(AdmissionControlTest, RestartMidServeLeavesAnEmptyQueue) {
  EnvelopeOptions options;
  options.fanout = 4;
  options.join_visit_cost_us = 2000;
  options.admission_queue_depth = 2;
  Build(options);
  for (size_t i = 0; i < services_.size(); ++i) {
    QueryService* service = services_[i].get();
    overlay_->peer(static_cast<net::PeerId>(i))
        ->set_restart_hook([service] { service->OnPeerRestart(); });
  }

  std::optional<Result<MigrateResult>> first;
  services_[0]->RunMigrateJoin(
      AgePattern(), Left(),
      [&first](Result<MigrateResult> r) { first = std::move(r); });
  size_t busy = 0;
  overlay_->scheduler().RunUntil([&] {
    for (size_t i = 1; i < services_.size(); ++i) {
      if (services_[i]->serving_queue_depth() > 0) {
        busy = i;
        return true;
      }
    }
    return false;
  });
  ASSERT_NE(busy, 0u) << "no peer ever queued a join";
  overlay_->peer(static_cast<net::PeerId>(busy))->Restart();
  overlay_->scheduler().RunUntilIdle();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(services_[busy]->serving_queue_depth(), 0u);

  const uint64_t sheds_before = services_[busy]->sheds();
  std::optional<Result<MigrateResult>> second;
  services_[0]->RunMigrateJoin(
      AgePattern(), Left(),
      [&second](Result<MigrateResult> r) { second = std::move(r); });
  overlay_->scheduler().RunUntil([&] { return second.has_value(); });
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok()) << second->status().ToString();
  EXPECT_EQ(services_[busy]->sheds(), sheds_before)
      << "the restarted peer sheds against a queue it no longer has";
}

// --- Replica-group fan-out ---------------------------------------------------

// The first peer outside `group`.
net::PeerId OutsideOf(const std::vector<net::PeerId>& group) {
  net::PeerId peer = 0;
  while (std::find(group.begin(), group.end(), peer) != group.end()) ++peer;
  return peer;
}

TEST(HotKeyFanoutTest, SkewedLookupsSpreadAcrossReplicaGroup) {
  pgrid::OverlayOptions options;
  options.seed = 616;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  ASSERT_GE(overlay.InsertDirect(hot), 3u) << "replica group too small";
  const auto owners = overlay.ResponsiblePeers(hot.key);

  // An initiator outside the replica group hammers one key.
  const net::PeerId initiator = OutsideOf(owners);
  const int kLookups = 300;
  for (int i = 0; i < kLookups; ++i) {
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    ASSERT_EQ(result->entries.size(), 1u) << "lookup " << i;
    EXPECT_EQ(result->entries[0].id, "hot-id");
  }

  uint64_t adverts = 0;
  size_t serving_replicas = 0;
  for (net::PeerId owner : owners) {
    adverts += overlay.peer(owner)->counters().hot_adverts;
    if (overlay.peer(owner)->counters().lookups_served > 0) ++serving_replicas;
  }
  EXPECT_GT(adverts, 0u) << "no reply advertised the replica group";
  EXPECT_GT(overlay.peer(initiator)->counters().fanout_redirects, 0u);
  EXPECT_GE(serving_replicas, 2u)
      << "fan-out failed to spread load off the single owner";
}

// Zipf-skewed lookups from one initiator over 64 stored values: with
// every reply advertising its group, most keys go one hop to a replica,
// and each lookup still returns exactly the entry stored under its key.
TEST(HotKeyFanoutTest, ZipfLookupsReturnTheInsertedEntries) {
  pgrid::OverlayOptions options;
  options.seed = 808;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(48);
  overlay.BuildBalanced();

  std::map<pgrid::Key, std::vector<std::string>> stored;
  for (size_t rank = 0; rank < 64; ++rank) {
    char value[16];
    std::snprintf(value, sizeof(value), "val-%05zu", rank);
    pgrid::Entry e;
    e.key = pgrid::OpHash(value);
    e.id = std::string("id-") + value;
    e.version = 1;
    ASSERT_GE(overlay.InsertDirect(e), 1u);
    stored[e.key].push_back(e.id);
  }
  for (auto& [key, ids] : stored) std::sort(ids.begin(), ids.end());

  // Outside the hottest value's group, so the hot traffic crosses the
  // network.
  const net::PeerId initiator =
      OutsideOf(overlay.ResponsiblePeers(pgrid::OpHash("val-00000")));
  core::ZipfQueryOptions zipf;
  zipf.count = 1200;
  zipf.theta = 1.1;
  zipf.read_ratio = 1.0;
  zipf.value_universe = 64;
  zipf.seed = 4242;
  for (const core::ZipfQuery& q : core::GenerateZipfQueries(zipf)) {
    const pgrid::Key key = pgrid::OpHash(q.value);
    auto result = overlay.LookupSync(initiator, key);
    ASSERT_TRUE(result.ok()) << q.value << ": " << result.status().ToString();
    std::vector<std::string> ids;
    for (const pgrid::Entry& e : result->entries) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids, stored.at(key)) << q.value;
  }
  EXPECT_GT(overlay.peer(initiator)->counters().fanout_redirects, 600u);
}

// One key-set lookup over keys inside and outside a partition whose
// advert the initiator holds: the keys under the advert go to a replica,
// the others are routed, and every key returns its stored entry.
TEST(HotKeyFanoutTest, BatchKeysUnderAnAdvertAreRedirected) {
  pgrid::OverlayOptions options;
  options.seed = 618;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  std::vector<pgrid::Key> keys;
  std::map<pgrid::Key, std::string> ids;
  for (const std::string value :
       {"the-hot-value", "the-hot-value-1", "the-hot-value-2", "!cold-value",
        "\xF0" "cold-value"}) {
    pgrid::Entry e;
    e.key = pgrid::OpHash(value);
    e.id = value + "-id";
    overlay.InsertDirect(e);
    keys.push_back(e.key);
    ids[e.key] = e.id;
  }
  const auto owners = overlay.ResponsiblePeers(keys[0]);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[1]), owners);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[2]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[3]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[4]), owners);
  const net::PeerId initiator = OutsideOf(owners);
  ASSERT_TRUE(overlay.LookupSync(initiator, keys[0]).ok());  // The advert.

  const uint64_t before = overlay.peer(initiator)->counters().fanout_redirects;
  auto batch = overlay.LookupBatchSync(initiator, keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects - before, 3u);
  ASSERT_EQ(batch->size(), 5u);
  for (const auto& [key, entries] : *batch) {
    ASSERT_EQ(entries.size(), 1u) << key.ToString();
    EXPECT_EQ(entries[0].id, ids.at(key));
  }
}

// Write, then read the key back through the advert: every replica the
// advert names serves one redirected read, and each returns the write.
TEST(HotKeyFanoutTest, RedirectedReadsReturnTheWriteAtEveryReplica) {
  pgrid::OverlayOptions options;
  options.seed = 619;
  options.replication = 3;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry written;
  written.key = pgrid::OpHash("the-written-value");
  written.id = "written-id";
  written.version = 1;
  const auto owners = overlay.ResponsiblePeers(written.key);
  ASSERT_EQ(owners.size(), 3u);
  const net::PeerId initiator = OutsideOf(owners);
  // The routed insert's reply brings back the advert of the key's path,
  // and the advert outlives the replica push.
  ASSERT_TRUE(overlay.InsertSync(initiator, written).ok());
  overlay.scheduler().RunUntilIdle();  // The replica push delivers.
  ASSERT_EQ(overlay.peer(initiator)->advert_cache().size(), 1u);
  ASSERT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 0u);

  std::set<net::PeerId> served;
  for (size_t i = 0; i < owners.size(); ++i) {
    std::vector<uint64_t> before;
    for (net::PeerId owner : owners) {
      before.push_back(overlay.peer(owner)->counters().lookups_served);
    }
    const uint64_t redirects =
        overlay.peer(initiator)->counters().fanout_redirects;
    auto result = overlay.LookupSync(initiator, written.key);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects,
              redirects + 1);
    ASSERT_EQ(result->entries.size(), 1u) << "read " << i;
    EXPECT_EQ(result->entries[0].id, "written-id");
    for (size_t o = 0; o < owners.size(); ++o) {
      if (overlay.peer(owners[o])->counters().lookups_served > before[o]) {
        served.insert(owners[o]);
      }
    }
  }
  EXPECT_EQ(served, std::set<net::PeerId>(owners.begin(), owners.end()));
}

// One timed-out redirect to a crashed replica drops it from the advert:
// later keys under the path never go to it, even once its suspicion has
// expired, so only one read pays the timeout.
TEST(HotKeyFanoutTest, TimedOutRedirectForgetsTheReplica) {
  pgrid::OverlayOptions options;
  options.seed = 620;
  options.replication = 3;
  options.peer.request_timeout = 200 * sim::kMicrosPerMilli;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  overlay.InsertDirect(hot);
  const auto owners = overlay.ResponsiblePeers(hot.key);
  ASSERT_EQ(owners.size(), 3u);
  const net::PeerId initiator = OutsideOf(owners);
  ASSERT_TRUE(overlay.LookupSync(initiator, hot.key).ok());  // The advert.
  overlay.Crash(owners[1]);

  int slow = 0;
  for (int i = 0; i < 12; ++i) {
    const sim::SimTime start = overlay.scheduler().Now();
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    ASSERT_EQ(result->entries.size(), 1u);
    if (overlay.scheduler().Now() - start >= options.peer.request_timeout) {
      ++slow;
    }
  }
  EXPECT_EQ(slow, 1) << "a later key was redirected to the crashed replica";
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 13u);
}

TEST(HotKeyFanoutTest, PeerWithoutReplicaGroupNeverAdvertises) {
  pgrid::OverlayOptions options;
  options.seed = 617;
  options.replication = 1;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  overlay.InsertDirect(hot);
  const auto owners = overlay.ResponsiblePeers(hot.key);
  ASSERT_EQ(owners.size(), 1u);
  const net::PeerId initiator = OutsideOf(owners);
  for (int i = 0; i < 120; ++i) {
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->entries.size(), 1u);
  }
  EXPECT_EQ(overlay.peer(owners[0])->counters().hot_adverts, 0u);
  EXPECT_EQ(overlay.peer(initiator)->counters().fanout_redirects, 0u);
  EXPECT_EQ(overlay.peer(initiator)->advert_cache().size(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace unistore
