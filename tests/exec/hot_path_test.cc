// Hot-path serving layer scenarios (DESIGN.md §8): per-peer admission
// control sheds load without ever losing a query, and hot-key replica
// fan-out spreads skewed lookups across the replica group.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

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
  overlay_->simulation().RunUntil([&outs] {
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
  overlay_->simulation().RunUntil([&outs] {
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
  overlay_->simulation().RunUntil([&] {
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
  overlay_->simulation().RunUntilIdle();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(services_[busy]->serving_queue_depth(), 0u);

  const uint64_t sheds_before = services_[busy]->sheds();
  std::optional<Result<MigrateResult>> second;
  services_[0]->RunMigrateJoin(
      AgePattern(), Left(),
      [&second](Result<MigrateResult> r) { second = std::move(r); });
  overlay_->simulation().RunUntil([&] { return second.has_value(); });
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->ok()) << second->status().ToString();
  EXPECT_EQ(services_[busy]->sheds(), sheds_before)
      << "the restarted peer sheds against a queue it no longer has";
}

// --- Hot-key replica fan-out ------------------------------------------------

TEST(HotKeyFanoutTest, SkewedLookupsSpreadAcrossReplicaGroup) {
  pgrid::OverlayOptions options;
  options.seed = 616;
  options.replication = 3;
  options.peer.hot_key_qps_threshold = 50;  // Enable fan-out.
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
  net::PeerId initiator = 0;
  while (std::find(owners.begin(), owners.end(), initiator) != owners.end()) {
    ++initiator;
  }
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
    adverts += overlay.peer(owner)->hot_adverts();
    if (overlay.peer(owner)->lookups_served() > 0) ++serving_replicas;
  }
  EXPECT_GT(adverts, 0u) << "owner never crossed the hot threshold";
  EXPECT_GT(overlay.peer(initiator)->fanout_redirects(), 0u);
  EXPECT_GE(serving_replicas, 2u)
      << "fan-out failed to spread load off the single owner";
}

// A skewed run that makes one partition hot, then one key-set lookup over
// keys inside and outside it: its rows and the redirects it made.
struct HotBatchRun {
  pgrid::LookupBatchResult rows;
  uint64_t redirects = 0;
};

HotBatchRun RunHotBatch(double hot_key_qps_threshold) {
  pgrid::OverlayOptions options;
  options.seed = 618;
  options.replication = 3;
  options.peer.hot_key_qps_threshold = hot_key_qps_threshold;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  std::vector<pgrid::Key> keys;
  for (const std::string value :
       {"the-hot-value", "the-hot-value-1", "the-hot-value-2", "!cold-value",
        "\xF0" "cold-value"}) {
    pgrid::Entry e;
    e.key = pgrid::OpHash(value);
    e.id = value + "-id";
    overlay.InsertDirect(e);
    keys.push_back(e.key);
  }
  const auto owners = overlay.ResponsiblePeers(keys[0]);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[1]), owners);
  EXPECT_EQ(overlay.ResponsiblePeers(keys[2]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[3]), owners);
  EXPECT_NE(overlay.ResponsiblePeers(keys[4]), owners);
  net::PeerId initiator = 0;
  while (std::find(owners.begin(), owners.end(), initiator) != owners.end()) {
    ++initiator;
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(overlay.LookupSync(initiator, keys[0]).ok());
  }
  HotBatchRun run;
  const uint64_t before = overlay.peer(initiator)->fanout_redirects();
  auto batch = overlay.LookupBatchSync(initiator, keys);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (batch.ok()) run.rows = std::move(*batch);
  run.redirects = overlay.peer(initiator)->fanout_redirects() - before;
  return run;
}

TEST(HotKeyFanoutTest, BatchKeysUnderAnAdvertAreRedirected) {
  const HotBatchRun on = RunHotBatch(/*hot_key_qps_threshold=*/50);
  const HotBatchRun off = RunHotBatch(/*hot_key_qps_threshold=*/0);
  // The three keys of the hot partition went to a replica; the cold keys
  // were routed.
  EXPECT_EQ(on.redirects, 3u);
  EXPECT_EQ(off.redirects, 0u);
  ASSERT_EQ(on.rows.size(), 5u);
  EXPECT_EQ(on.rows, off.rows);
  for (const auto& [key, entries] : on.rows) {
    EXPECT_EQ(entries.size(), 1u) << key.ToString();
  }
}

TEST(HotKeyFanoutTest, DisabledThresholdNeverAdvertises) {
  pgrid::OverlayOptions options;
  options.seed = 617;
  options.replication = 3;
  options.peer.hot_key_qps_threshold = 0;  // Default: off.
  pgrid::Overlay overlay(options);
  overlay.AddPeers(24);
  overlay.BuildBalanced();

  pgrid::Entry hot;
  hot.key = pgrid::OpHash("the-hot-value");
  hot.id = "hot-id";
  hot.version = 1;
  overlay.InsertDirect(hot);
  const auto owners = overlay.ResponsiblePeers(hot.key);
  net::PeerId initiator = 0;
  while (std::find(owners.begin(), owners.end(), initiator) != owners.end()) {
    ++initiator;
  }
  for (int i = 0; i < 120; ++i) {
    auto result = overlay.LookupSync(initiator, hot.key);
    ASSERT_TRUE(result.ok());
  }
  for (net::PeerId owner : owners) {
    EXPECT_EQ(overlay.peer(owner)->hot_adverts(), 0u);
  }
  EXPECT_EQ(overlay.peer(initiator)->fanout_redirects(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace unistore
