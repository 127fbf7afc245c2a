// Chaos scenario: envelope walks straddling a scripted network partition
// (DESIGN.md §10). While a serving peer is partitioned the walk's coverage
// frontier stalls; the relaunch discipline must retry into the healed
// segment and produce rows byte-identical to a fault-free run. When the
// partition never heals, the join must degrade gracefully: the initiator
// gets the reachable rows plus an explicit coverage-gap status, well
// before the full scan deadline — never a silent hang.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/query_service.h"
#include "net/fault_plane.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

namespace unistore {
namespace pgrid {
namespace {

constexpr size_t kInsideLeaves = 8;
constexpr int kTriples = 32;

std::string RowsToString(const std::vector<exec::Binding>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (const auto& [var, value] : row) {
      out += var + "=" + value.ToDisplayString() + ";";
    }
    out += "\n";
  }
  return out;
}

// One overlay per run: peers on a partition-cover trie for the "age"
// attribute, a QueryService per peer, `kTriples` rows bulk-loaded. Walks
// wait `request_timeout` for progress and relaunch `request_retries`
// times.
struct Scenario {
  Scenario(const std::vector<std::string>& paths, uint64_t seed,
           sim::SimTime request_timeout, int request_retries) {
    OverlayOptions options;
    options.seed = seed;
    options.peer.request_timeout = request_timeout;
    options.peer.request_retries = request_retries;
    overlay = std::make_unique<Overlay>(options);
    overlay->AddPeers(paths.size());
    overlay->BuildWithPaths(paths);
    for (size_t i = 0; i < paths.size(); ++i) {
      services.push_back(std::make_unique<exec::QueryService>(
          overlay->peer(static_cast<net::PeerId>(i))));
    }
    for (int i = 0; i < kTriples; ++i) {
      triple::Triple t("p" + std::to_string(i), "age",
                       triple::Value::Int(20 + i));
      for (auto& entry : triple::EntriesForTriple(t, 1)) {
        overlay->InsertDirect(entry);
      }
    }
  }

  // The peer serving the walked attribute partition: the one responsible
  // for a known row's attr-index key. All "age" rows hash under the same
  // deep leaf, so partitioning this peer hides the partition's rows.
  net::PeerId ServingPeer() const {
    auto ids = overlay->ResponsiblePeers(
        triple::AttrValueKey("age", triple::Value::Int(20)));
    for (net::PeerId id : ids) {
      if (id != 0) return id;  // Never partition the initiator.
    }
    return net::kNoPeer;
  }

  Result<exec::MigrateResult> Migrate(size_t initiator) {
    vql::TriplePattern pattern;
    pattern.subject = vql::Term::Var("a");
    pattern.predicate = vql::Term::Lit(triple::Value::String("age"));
    pattern.object = vql::Term::Var("o");
    std::vector<exec::Binding> left;
    for (int i = 0; i < kTriples; ++i) {
      left.push_back(
          {{"a", triple::Value::String("p" + std::to_string(i))}});
    }
    std::optional<Result<exec::MigrateResult>> out;
    services[initiator]->RunMigrateJoin(
        pattern, left, cost::MigrateBatching{},
        [&out](Result<exec::MigrateResult> r) { out = std::move(r); });
    overlay->scheduler().RunUntil([&out] { return out.has_value(); });
    EXPECT_TRUE(out.has_value());
    return std::move(*out);
  }

  std::unique_ptr<Overlay> overlay;
  std::vector<std::unique_ptr<exec::QueryService>> services;
};

// Satellite: a walk launched into a partition that heals mid-flight must
// relaunch its frontier into the healed segment and return rows
// byte-identical to a run that never saw a fault.
TEST(PartitionHealTest, WalkStraddlingHealMatchesFaultFreeRun) {
  const auto paths = PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), kInsideLeaves);

  auto run = [&paths](bool faulted, uint32_t* retries_out) {
    Scenario s(paths, /*seed=*/77, 500 * sim::kMicrosPerMilli,
               /*request_retries=*/10);
    if (faulted) {
      net::PeerId victim = s.ServingPeer();
      EXPECT_NE(victim, net::kNoPeer);
      net::FaultSchedule faults;
      faults.PartitionPair(0, 2 * sim::kMicrosPerSecond, victim,
                           net::kAnyPeer);
      s.overlay->transport().SetFaultSchedule(faults);
    }
    auto result = s.Migrate(0);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return std::string();
    EXPECT_TRUE(result->complete);
    EXPECT_TRUE(result->coverage_gaps.empty());
    EXPECT_EQ(result->rows.size(), static_cast<size_t>(kTriples));
    if (retries_out != nullptr) *retries_out = result->retries;
    return RowsToString(result->rows);
  };

  uint32_t retries = 0;
  const std::string healed_rows = run(/*faulted=*/true, &retries);
  const std::string clean_rows = run(/*faulted=*/false, nullptr);
  EXPECT_GT(retries, 0u)
      << "the walk never stalled: partition did not bite";
  ASSERT_FALSE(clean_rows.empty());
  EXPECT_EQ(healed_rows, clean_rows)
      << "rows after straddling a heal differ from the fault-free run";
}

// A partition that never heals: the join returns the reachable rows with
// an explicit coverage-gap status long before the scan deadline.
TEST(PartitionHealTest, UnhealedPartitionYieldsExplicitCoverageGap) {
  const auto paths = PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), kInsideLeaves);
  Scenario s(paths, /*seed=*/78, 200 * sim::kMicrosPerMilli,
             /*request_retries=*/2);
  net::PeerId victim = s.ServingPeer();
  ASSERT_NE(victim, net::kNoPeer);
  net::FaultSchedule faults;
  faults.PartitionPair(0, net::kFaultForever, victim, net::kAnyPeer);
  s.overlay->transport().SetFaultSchedule(faults);

  const sim::SimTime launched = s.overlay->scheduler().Now();
  auto degraded = s.Migrate(0);
  const sim::SimTime finished = s.overlay->scheduler().Now();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->complete)
      << "result over a cut network cannot be complete";
  ASSERT_FALSE(degraded->coverage_gaps.empty())
      << "incomplete result must carry an explicit coverage gap";
  for (const auto& gap : degraded->coverage_gaps) {
    EXPECT_FALSE(gap.second.empty());
    EXPECT_LE(gap.first, gap.second);
  }
  EXPECT_LT(degraded->rows.size(), static_cast<size_t>(kTriples))
      << "partitioned peer held rows, yet none went missing";
  // (retries + 1) relaunch chains of request_timeout each, plus slack —
  // far below the 20 s scan deadline a hang would burn.
  EXPECT_LT(finished - launched, 5 * sim::kMicrosPerSecond);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
