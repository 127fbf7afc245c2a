// Experiment C8 (paper §2/§3, [Datta ICDCS'03]): "update functionality
// with lose consistency guarantees" and robustness in "unreliable and
// highly dynamic" environments.
//
// Part 1 — update propagation: rumor-spreading push across replica
// groups; replica consistency immediately after the update settles, as a
// function of gossip fanout and message loss. Each push names the peers
// it has already informed and receivers forward only outside that set,
// so without loss every fanout reaches every replica; loss leaves stale
// replicas that anti-entropy repairs.
//
// Part 2 — queries under churn: fraction of lookups answered as peers
// crash. Expected: graceful degradation, strongly improved by
// replication.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_util.h"
#include "pgrid/overlay.h"

using namespace unistore;

namespace {

// Gate metrics captured out of the table loops below, written to
// BENCH_updates_churn_gates.json and enforced via the exit code.
double g_f4_clean_consistency = 0.0;   ///< fanout 4, 0% loss.
double g_f4_lossy_consistency = 0.0;   ///< fanout 4, 15% loss.
double g_r1_churn30_success = 0.0;     ///< replication 1, 30% churn.
double g_r3_churn30_success = 0.0;     ///< replication 3, 30% churn.
/// Retries by policy and final virtual time of that last run.
std::map<std::string, uint64_t> g_r3_churn30_retries;
sim::SimTime g_r3_churn30_final_us = 0;

pgrid::Entry VersionedEntry(const std::string& value, uint64_t version) {
  pgrid::Entry e;
  e.key = pgrid::OpHash(value);
  e.id = value;
  e.version = version;
  return e;
}

void PrintUpdatePropagation() {
  bench::Banner(
      "C8a / update propagation (rumor spreading)",
      "Replica consistency right after an update settles, by gossip "
      "fanout and message loss (48 peers, replication 4, 100 updates). "
      "Each push carries its informed set: one push per replica, no "
      "duplicate copies to mask a lost push.");
  bench::Table table({"fanout", "loss", "consistent replicas", "stale",
                      "msgs/update"});
  for (size_t fanout : {1, 2, 4}) {
    for (double loss : {0.0, 0.05, 0.15}) {
      pgrid::OverlayOptions options;
      options.seed = 10 + fanout;
      options.replication = 4;
      options.peer.gossip_fanout = fanout;
      options.loss_probability = loss;
      pgrid::Overlay overlay(options);
      overlay.AddPeers(48);
      overlay.BuildBalanced();

      Rng rng(7);
      size_t consistent = 0, stale = 0;
      uint64_t messages = 0;
      for (int u = 0; u < 100; ++u) {
        std::string value(1, static_cast<char>(rng.NextBounded(200) + 30));
        value += "-doc-" + std::to_string(u);
        auto via = static_cast<net::PeerId>(rng.NextBounded(48));
        auto before = overlay.transport().stats();
        (void)overlay.InsertSync(via, VersionedEntry(value, 2));
        overlay.scheduler().RunUntilIdle();
        messages +=
            overlay.transport().stats().Since(before).messages_sent;
        for (auto owner : overlay.ResponsiblePeers(
                 pgrid::OpHash(value))) {
          auto stored = overlay.peer(owner)->store().Get(
              pgrid::OpHash(value));
          bool has = false;
          for (const auto& e : stored) {
            if (e.id == value && e.version == 2) has = true;
          }
          has ? ++consistent : ++stale;
        }
      }
      double total = static_cast<double>(consistent + stale);
      double rate = consistent / std::max(1.0, total);
      if (fanout == 4 && loss == 0.0) g_f4_clean_consistency = rate;
      if (fanout == 4 && loss == 0.15) g_f4_lossy_consistency = rate;
      table.AddRow({std::to_string(fanout), bench::Fmt("%.0f%%", loss * 100),
                    bench::Fmt("%.1f%%", 100.0 * consistent /
                                             std::max(1.0, total)),
                    std::to_string(stale),
                    bench::Fmt("%.1f", static_cast<double>(messages) / 100)});
    }
  }
  table.Print();
  std::printf("expected: every fanout consistent without loss; loss "
              "degrades it gracefully (anti-entropy repairs the rest on "
              "rejoin).\n");
}

void PrintChurnResilience() {
  bench::Banner(
      "C8b / lookups under churn",
      "Fraction of lookups answered as peers crash (48 peers, 150 keys, "
      "lookup retries enabled).");
  bench::Table table(
      {"replication", "churn", "success rate", "avg hops"});
  for (size_t replication : {1, 3}) {
    for (double churn : {0.0, 0.1, 0.2, 0.3}) {
      pgrid::OverlayOptions options;
      options.seed = 500 + replication;
      options.replication = replication;
      pgrid::Overlay overlay(options);
      overlay.AddPeers(48);
      overlay.BuildBalanced();

      Rng rng(13);
      std::vector<pgrid::Entry> entries;
      for (int i = 0; i < 150; ++i) {
        std::string value(1, static_cast<char>(rng.NextBounded(200) + 30));
        value += "-key-" + std::to_string(i);
        entries.push_back(VersionedEntry(value, 1));
        (void)overlay.InsertSync(
            static_cast<net::PeerId>(rng.NextBounded(48)), entries.back());
      }
      overlay.scheduler().RunUntilIdle();

      size_t to_kill = static_cast<size_t>(48 * churn);
      std::vector<net::PeerId> ids(48);
      for (net::PeerId i = 0; i < 48; ++i) ids[i] = i;
      rng.Shuffle(&ids);
      for (size_t i = 0; i < to_kill; ++i) overlay.Crash(ids[i]);

      int successes = 0;
      SampleStats hops;
      for (const auto& e : entries) {
        net::PeerId from;
        do {
          from = static_cast<net::PeerId>(rng.NextBounded(48));
        } while (!overlay.IsAlive(from));
        auto result = overlay.LookupSync(from, e.key);
        if (result.ok() && !result->entries.empty()) {
          ++successes;
          hops.Add(result->hops);
        }
      }
      double rate = successes / 150.0;
      if (churn == 0.3 && replication == 1) g_r1_churn30_success = rate;
      if (churn == 0.3 && replication == 3) {
        g_r3_churn30_success = rate;
        g_r3_churn30_retries = overlay.transport().stats().retries_by_policy;
        g_r3_churn30_final_us = overlay.scheduler().Now();
      }
      table.AddRow({std::to_string(replication),
                    bench::Fmt("%.0f%%", churn * 100),
                    bench::Fmt("%.1f%%", 100.0 * rate),
                    bench::Fmt("%.2f", hops.mean())});
    }
  }
  table.Print();
  std::printf("expected: success degrades with churn but markedly slower "
              "with replication 3 (surviving replicas answer for crashed "
              "owners; the residual misses are routing dead ends that a "
              "repair protocol would patch).\n");
}

void BM_UpdateSettle(benchmark::State& state) {
  pgrid::OverlayOptions options;
  options.seed = 3;
  options.replication = 4;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(32);
  overlay.BuildBalanced();
  uint64_t version = 2;
  for (auto _ : state) {
    (void)overlay.InsertSync(1, VersionedEntry("bench-doc", ++version));
    overlay.scheduler().RunUntilIdle();
  }
}
BENCHMARK(BM_UpdateSettle);

}  // namespace

int main(int argc, char** argv) {
  PrintUpdatePropagation();
  PrintChurnResilience();

  // Floors sit well under the measured values (1.00 / 0.97 / 0.77) so
  // only a real regression trips them, not seed-level noise. The
  // replication-advantage gate pins the paper's C8b claim: replication 3
  // must not answer fewer lookups than replication 1 under 30% churn.
  bench::GateJson gates;
  gates.Add("updates_f4_clean_consistency", g_f4_clean_consistency);
  gates.Add("updates_f4_lossy_consistency", g_f4_lossy_consistency);
  gates.Add("updates_r1_churn30_success", g_r1_churn30_success);
  gates.Add("updates_r3_churn30_success", g_r3_churn30_success);
  gates.Add("updates_consistency_ok",
            g_f4_clean_consistency >= 0.95 && g_f4_lossy_consistency >= 0.85
                ? 1
                : 0);
  gates.Add("updates_churn_success_ok",
            g_r3_churn30_success >= 0.65 ? 1 : 0);
  gates.Add("updates_replication_advantage_ok",
            g_r3_churn30_success >= g_r1_churn30_success ? 1 : 0);
  bench::AddRetryGates(&gates, "updates_r3_churn30", g_r3_churn30_retries,
                       g_r3_churn30_final_us);
  gates.WriteTo("BENCH_updates_churn_gates.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (g_f4_clean_consistency < 0.95 || g_f4_lossy_consistency < 0.85) {
    std::printf("FAIL: fanout-4 consistency %.3f clean / %.3f lossy below "
                "the 0.95 / 0.85 floors\n",
                g_f4_clean_consistency, g_f4_lossy_consistency);
    return 1;
  }
  if (g_r3_churn30_success < 0.65) {
    std::printf("FAIL: replication-3 success %.3f under 30%% churn below "
                "the 0.65 floor\n",
                g_r3_churn30_success);
    return 1;
  }
  if (g_r3_churn30_success < g_r1_churn30_success) {
    std::printf("FAIL: replication 3 (%.3f) answered fewer lookups than "
                "replication 1 (%.3f) under 30%% churn\n",
                g_r3_churn30_success, g_r1_churn30_success);
    return 1;
  }
  return 0;
}
