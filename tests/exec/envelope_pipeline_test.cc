// Cluster scenario tests of the batched, pipelined envelope executor
// (DESIGN.md §4): fan-out / chunked Migrate joins return byte-identical
// results to one unsplit walk carrying every binding and beat it on hop
// chain and completion time at partition scale, walks complete
// under message loss and mid-walk peer churn (coverage-gap retries +
// interval dedupe), peers_visited sums across sub-walks, and the executor
// trace reports the fan-out shape.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "pgrid/overlay.h"
#include "sim/scheduler.h"
#include "triple/index.h"
#include "triple/store_service.h"

namespace unistore {
namespace exec {
namespace {

using triple::Triple;
using triple::Value;

constexpr size_t kInsideLeaves = 16;

// The trie: deep under the 'age' string-value partition (the common prefix
// of "a#age#s..."), shallow complements elsewhere. One peer per path; the
// inside peers are the last `inside_leaves` ids.
std::vector<std::string> PipelinePaths(size_t inside_leaves = kInsideLeaves) {
  return pgrid::PartitionCoverPaths(triple::AttrPrefixRange("age", ""),
                                    inside_leaves);
}

// A value whose first character sweeps the byte range, so triples spread
// across the inside leaves.
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

class EnvelopePipelineTest : public ::testing::Test {
 protected:
  /// The PipelinePaths trie with 1 ms links, holding `triples` age
  /// triples spread across the inside leaves.
  void Build(double loss_probability, uint64_t seed = 4242,
             size_t inside_leaves = kInsideLeaves, int triples = 120,
             const pgrid::PeerOptions& peer = {}) {
    const auto paths = PipelinePaths(inside_leaves);
    pgrid::OverlayOptions options;
    options.seed = seed;
    options.loss_probability = loss_probability;
    options.peer = peer;
    overlay_ = std::make_unique<pgrid::Overlay>(options);
    overlay_->AddPeers(paths.size());
    overlay_->BuildWithPaths(paths);
    services_.clear();
    for (size_t i = 0; i < paths.size(); ++i) {
      services_.push_back(std::make_unique<QueryService>(
          overlay_->peer(static_cast<net::PeerId>(i))));
    }
    for (int i = 0; i < triples; ++i) {
      Triple t("p" + std::to_string(i), "age", Value::String(SpreadValue(i)));
      for (auto& entry : triple::EntriesForTriple(t, 1)) {
        overlay_->InsertDirect(entry);
      }
    }
    inside_first_ = static_cast<net::PeerId>(paths.size() - inside_leaves);
  }

  /// `n` bindings with `misses` ghost ids interleaved for every three
  /// stored ones.
  std::vector<Binding> Left(size_t n, size_t misses = 2) {
    std::vector<Binding> left;
    for (size_t i = 0; i < n; ++i) {
      const std::string oid = (i % (3 + misses) < 3)
                                  ? "p" + std::to_string(i)
                                  : "ghost" + std::to_string(i);
      left.push_back({{"a", Value::String(oid)},
                      {"tag", Value::Int(static_cast<int64_t>(i))}});
    }
    return left;
  }

  /// Starts a Migrate join at peer 0 in the given shape; does not run
  /// the simulation.
  void StartMigrate(const cost::MigrateBatching& batching,
                    std::vector<Binding> left,
                    std::optional<Result<MigrateResult>>* out) {
    services_[0]->RunMigrateJoin(
        AgePattern(), std::move(left), batching,
        [out](Result<MigrateResult> r) { *out = std::move(r); });
  }

  /// Runs a Migrate join to completion; `elapsed`, if set, receives the
  /// virtual time it took.
  Result<MigrateResult> MigrateSync(const cost::MigrateBatching& batching,
                                    std::vector<Binding> left,
                                    sim::SimTime* elapsed = nullptr) {
    const sim::SimTime start = overlay_->scheduler().Now();
    std::optional<Result<MigrateResult>> out;
    StartMigrate(batching, std::move(left), &out);
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    if (elapsed != nullptr) *elapsed = overlay_->scheduler().Now() - start;
    if (!out.has_value()) return Status::Internal("simulation drained");
    return std::move(*out);
  }

  Result<MigrateResult> MigrateSync(const cost::MigrateBatching& batching) {
    return MigrateSync(batching, Left(40));
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<QueryService>> services_;
  net::PeerId inside_first_ = 0;
};

// A Migrate shape; `chunk` 0 puts every binding in one envelope, so
// Shape(1) is one walk carrying every binding.
cost::MigrateBatching Shape(uint32_t fanout, uint32_t chunk = 0) {
  cost::MigrateBatching batching;
  batching.fanout = fanout;
  batching.max_bindings_per_envelope = chunk;
  return batching;
}

TEST_F(EnvelopePipelineTest, FanoutAndChunkingMatchUnsplitBaseline) {
  Build(/*loss_probability=*/0);
  auto baseline = MigrateSync(Shape(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->rows.size(), 10u);
  EXPECT_EQ(baseline->branches, 1u);
  EXPECT_EQ(baseline->chunks_per_branch, 1u);
  const std::string expected = RowsToString(baseline->rows);

  struct Config {
    const char* name;
    uint32_t fanout;
    uint32_t chunk;
  };
  const Config configs[] = {
      {"fanout-only", 4, 0},
      {"chunking-only", 1, 8},
      {"fanout+chunking", 4, 8},
      {"wide", 8, 16},
  };
  for (const Config& config : configs) {
    auto result = MigrateSync(Shape(config.fanout, config.chunk));
    ASSERT_TRUE(result.ok()) << config.name << ": "
                             << result.status().ToString();
    EXPECT_EQ(RowsToString(result->rows), expected)
        << config.name << " changed the result bytes";
    if (config.fanout > 1) {
      EXPECT_GT(result->branches, 1u) << config.name;
    }
    if (config.chunk > 0) {
      EXPECT_GT(result->chunks_per_branch, 1u) << config.name;
    }
  }
}

// Fan-out plus chunking shortens the join: 256 bindings against 400
// triples under a 32-leaf partition of an 88-peer trie, 1 ms links. One
// unsplit walk visits the partition's peers one after another; four
// branches of 64-binding chunks cover them in parallel and return the
// same rows with a shorter hop chain and an earlier completion. The
// three configurations run in turn on one overlay; DESIGN.md §4 records
// 24 hops and 26.2 ms against the single walk's 63 hops and 64.1 ms.
TEST_F(EnvelopePipelineTest, FanoutAndChunkingBeatOneWalkOnHopsAndTime) {
  Build(/*loss_probability=*/0, /*seed=*/1309, /*inside_leaves=*/32,
        /*triples=*/400);
  ASSERT_EQ(services_.size(), 88u);
  // Gossiped peer-path samples steer the fan-out split along the trie.
  for (auto& service : services_) service->BuildLocalStats(1000);
  for (int round = 0; round < 3; ++round) {
    for (auto& service : services_) service->GossipStats(4);
    overlay_->scheduler().RunUntilIdle();
  }
  const std::vector<Binding> left = Left(256, /*misses=*/1);
  auto run = [&](uint32_t fanout, uint32_t chunk, sim::SimTime* elapsed) {
    return MigrateSync(Shape(fanout, chunk), left, elapsed);
  };
  sim::SimTime one_walk_time = 0;
  sim::SimTime batched_time = 0;
  auto one_walk = run(/*fanout=*/1, /*chunk=*/0, &one_walk_time);
  auto fanned = run(/*fanout=*/4, /*chunk=*/0, nullptr);
  auto batched = run(/*fanout=*/4, /*chunk=*/64, &batched_time);
  ASSERT_TRUE(one_walk.ok()) << one_walk.status().ToString();
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const std::string expected = RowsToString(one_walk->rows);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(RowsToString(fanned->rows), expected);
  EXPECT_EQ(RowsToString(batched->rows), expected);
  EXPECT_LT(batched->max_walk_peers, one_walk->max_walk_peers);
  EXPECT_LT(batched_time, one_walk_time);
}

// Every leg of a walk, from one leaf to the next, is a route of its own,
// as in a sequential range scan: one unchunked walk over a 512-leaf
// partition (568 peers) visits more peers in a row than Peer::Forward's
// 2·kKeyBits hop cap, yet completes with every row and no retry.
TEST_F(EnvelopePipelineTest, LongWalkRestartsItsHopCountAtEveryLeaf) {
  Build(/*loss_probability=*/0, /*seed=*/4242, /*inside_leaves=*/512,
        /*triples=*/400);
  ASSERT_EQ(services_.size(), 568u);
  auto result = MigrateSync(Shape(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->complete);
  EXPECT_TRUE(result->coverage_gaps.empty());
  EXPECT_EQ(result->rows.size(), 24u);
  EXPECT_EQ(result->retries, 0u);
  EXPECT_GT(result->max_walk_peers, 2 * pgrid::kKeyBits);
}

TEST_F(EnvelopePipelineTest, PeersVisitedSumsAcrossSubWalks) {
  Build(/*loss_probability=*/0);
  auto single = MigrateSync(Shape(1));
  ASSERT_TRUE(single.ok());
  // The partition walk spans the inside leaves (plus the in-partition
  // complement peers).
  EXPECT_GE(single->peers_visited, kInsideLeaves);

  auto split = MigrateSync(Shape(4));
  ASSERT_TRUE(split.ok());
  ASSERT_GT(split->branches, 1u);
  // Summed across sub-walks: never less than the unsplit cover. A
  // last-walk-wins bug would report roughly 1/branches of it.
  EXPECT_GE(split->peers_visited, single->peers_visited);

  auto convoy = MigrateSync(Shape(1, 8));
  ASSERT_TRUE(convoy.ok());
  ASSERT_GT(convoy->chunks_per_branch, 1u);
  // Chunks of one branch revisit the same peers: max, not sum.
  EXPECT_EQ(convoy->peers_visited, single->peers_visited);
}

// Walks that wait 500 ms for progress and relaunch up to 8 times.
pgrid::PeerOptions PatientWalks() {
  pgrid::PeerOptions peer;
  peer.request_timeout = 500 * sim::kMicrosPerMilli;
  peer.request_retries = 8;
  return peer;
}

TEST_F(EnvelopePipelineTest, WalksCompleteUnderMessageLoss) {
  Build(/*loss_probability=*/0, 4242, kInsideLeaves, 120, PatientWalks());
  const cost::MigrateBatching shape = Shape(4, 16);
  auto clean = MigrateSync(shape);
  ASSERT_TRUE(clean.ok());
  const std::string expected = RowsToString(clean->rows);

  Build(/*loss_probability=*/0.02, 4242, kInsideLeaves, 120, PatientWalks());
  auto lossy = MigrateSync(shape);
  ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();
  // Retries resume from coverage gaps and re-served intervals dedupe, so
  // loss changes neither the row set nor the bytes.
  EXPECT_EQ(RowsToString(lossy->rows), expected);
  EXPECT_GT(lossy->retries, 0u) << "expected the loss to cost retries";
}

TEST_F(EnvelopePipelineTest, WalksCompleteUnderMidWalkChurn) {
  Build(/*loss_probability=*/0, 4242, kInsideLeaves, 120, PatientWalks());
  const cost::MigrateBatching shape;  // The default: 2 walks, 128 a chunk.
  auto before = MigrateSync(shape);
  ASSERT_TRUE(before.ok());
  const std::string expected = RowsToString(before->rows);

  // Start a join, crash an in-partition peer mid-walk, let the walk stall
  // and retry against the hole, then revive the peer.
  std::optional<Result<MigrateResult>> out;
  StartMigrate(shape, Left(40), &out);
  overlay_->scheduler().RunFor(3 * sim::kMicrosPerMilli);
  const net::PeerId victim = inside_first_ + kInsideLeaves / 2;
  overlay_->Crash(victim);
  overlay_->scheduler().RunFor(1500 * sim::kMicrosPerMilli);
  EXPECT_FALSE(out.has_value()) << "walk should stall while the peer is down";
  overlay_->Revive(victim);
  overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok()) << out->status().ToString();
  EXPECT_EQ(RowsToString((*out)->rows), expected);
  EXPECT_GT((*out)->retries, 0u);
}

TEST_F(EnvelopePipelineTest, RepliesDedupeAcrossSubRangeSplits) {
  Build(/*loss_probability=*/0);
  auto baseline = MigrateSync(Shape(1));
  ASSERT_TRUE(baseline.ok());

  // A fan-out far wider than the inside leaves forces several sub-range
  // boundaries to fall inside single peers' regions, so the same peer
  // serves multiple branches. Every row must still appear exactly as
  // often as in the unsplit walk.
  cost::MigrateBatching wide;
  wide.fanout = 64;
  auto split = MigrateSync(wide);
  ASSERT_TRUE(split.ok());
  EXPECT_GT(split->branches, kInsideLeaves);
  EXPECT_EQ(RowsToString(split->rows), RowsToString(baseline->rows));
}

// --- Executor-level trace (runs through core::Cluster) ----------------------

TEST(EnvelopePipelineClusterTest, TraceReportsFanoutShape) {
  core::ClusterOptions options;
  options.custom_paths = PipelinePaths();
  options.peers = options.custom_paths.size();
  options.seed = 77;
  options.node.planner.migrate_batching.max_bindings_per_envelope = 4;
  options.node.planner.force_join_strategy = plan::JoinStrategy::kMigrate;
  core::Cluster cluster(options);

  for (int i = 0; i < 24; ++i) {
    const std::string oid = "p" + std::to_string(i);
    ASSERT_TRUE(cluster
                    .InsertTripleSync(0, Triple(oid, "age",
                                                Value::String(SpreadValue(i))))
                    .ok());
    ASSERT_TRUE(cluster
                    .InsertTripleSync(
                        0, Triple(oid, "name",
                                  Value::String("n" + std::to_string(i))))
                    .ok());
  }
  cluster.RefreshStats();

  auto result = cluster.QuerySync(
      0, "SELECT ?a,?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 24u);

  std::string migrate_line;
  for (const auto& line : result->trace) {
    if (line.rfind("Join[Migrate]:", 0) == 0) migrate_line = line;
  }
  ASSERT_FALSE(migrate_line.empty())
      << "no Join[Migrate] trace line; trace:\n"
      << [&] {
           std::string all;
           for (const auto& l : result->trace) all += l + "\n";
           return all;
         }();
  EXPECT_NE(migrate_line.find("chunks="), std::string::npos);
  // Parse the counters: the fan-out actually split and visited a
  // multi-peer partition (substring checks would misfire on 10..19).
  auto counter = [&migrate_line](const std::string& key) {
    const size_t at = migrate_line.find(key);
    if (at == std::string::npos) return -1;
    return std::atoi(migrate_line.c_str() + at + key.size());
  };
  EXPECT_GT(counter("branches="), 1) << migrate_line;
  EXPECT_GT(counter("peers_visited="), 1) << migrate_line;
}

// A VQL Migrate join whose walk runs out of retries (a serving peer cut
// off for good) returns the reachable rows in the default Migrate shape,
// and the result and its trace name the uncovered key intervals
// that hold the missing ones.
TEST(EnvelopePipelineClusterTest, PartialMigrateJoinNamesItsCoverageGap) {
  core::ClusterOptions options;
  options.custom_paths = PipelinePaths();
  options.peers = options.custom_paths.size();
  options.seed = 78;
  options.peer.request_timeout = 200 * sim::kMicrosPerMilli;
  options.node.planner.force_join_strategy = plan::JoinStrategy::kMigrate;
  core::Cluster cluster(options);

  constexpr int kPersons = 24;
  for (int i = 0; i < kPersons; ++i) {
    const std::string oid = "p" + std::to_string(i);
    ASSERT_TRUE(cluster
                    .InsertTripleSync(0, Triple(oid, "age",
                                                Value::String(SpreadValue(i))))
                    .ok());
    ASSERT_TRUE(cluster
                    .InsertTripleSync(
                        0, Triple(oid, "name",
                                  Value::String("n" + std::to_string(i))))
                    .ok());
  }
  cluster.RefreshStats();

  // Cut off the one peer serving person 5's age key (replication 1).
  const pgrid::Key cut_key =
      triple::AttrValueKey("age", Value::String(SpreadValue(5)));
  const auto owners = cluster.overlay().ResponsiblePeers(cut_key);
  ASSERT_EQ(owners.size(), 1u);
  ASSERT_NE(owners[0], 0u);
  net::FaultSchedule faults;
  faults.PartitionPair(0, net::kFaultForever, owners[0], net::kAnyPeer);
  cluster.overlay().transport().SetFaultSchedule(faults);

  auto result = cluster.QuerySync(
      0, "SELECT ?a,?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->rows.size(), static_cast<size_t>(kPersons))
      << "the cut peer held rows, yet none went missing";
  for (const auto& row : result->rows) {
    EXPECT_NE(row.at("a"), Value::String("p5"));
  }
  ASSERT_FALSE(result->coverage_gaps.empty())
      << "rows went missing and no coverage gap names them";
  bool covers_cut_key = false;
  for (const auto& [lo, hi] : result->coverage_gaps) {
    EXPECT_LE(lo, hi);
    covers_cut_key = covers_cut_key ||
                     (lo <= cut_key.bits() && cut_key.bits() <= hi);
  }
  EXPECT_TRUE(covers_cut_key) << "no gap covers the cut peer's key";

  std::string migrate_line;
  for (const auto& line : result->trace) {
    if (line.rfind("Join[Migrate]:", 0) == 0) migrate_line = line;
  }
  EXPECT_NE(migrate_line.find(" gap=[" + result->coverage_gaps[0].first +
                              "," + result->coverage_gaps[0].second + "]"),
            std::string::npos)
      << migrate_line;
}

}  // namespace
}  // namespace exec
}  // namespace unistore
