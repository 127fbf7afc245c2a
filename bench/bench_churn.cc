// Churn benchmark (DESIGN.md §11): a scripted peer-lifecycle campaign —
// crash-restart cycles, permanent crashes, graceful leaves, live joins —
// over a 64-peer overlay (16 regions x 4 replicas), measuring
//
//   - goodput retained: acked-write ratio under churn vs the same op
//     schedule on a churn-free overlay,
//   - post-restart catch-up: the slowest restarted peer's
//     manifest-delta catch-up time,
//
// and gating the lifecycle invariants the churn test campaign pins: zero
// lost acknowledged writes, byte-identical convergence inside every
// region, and every region back at the replication target. Exit code
// encodes the gates; BENCH_churn_gates.json carries them for the CI
// baseline diff.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "net/churn_plane.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"
#include "pgrid/run_summary.h"

namespace unistore {
namespace {

using pgrid::Entry;
using pgrid::Key;
using pgrid::LocalStore;
using pgrid::Overlay;
using pgrid::OverlayOptions;

constexpr sim::SimTime kMs = sim::kMicrosPerMilli;
constexpr sim::SimTime kS = sim::kMicrosPerSecond;
constexpr size_t kRegions = 16;
constexpr int kOps = 200;

uint32_t StoreDigest(const LocalStore& store) {
  pgrid::RunChecksum sum;
  store.ScanAll([&sum](const pgrid::EntryView& e) {
    sum.Add(e);
    return true;
  });
  return sum.crc;
}

struct CampaignOutcome {
  size_t attempted = 0;
  size_t acked = 0;
  size_t lost_acks = 0;
  bool converged = true;
  bool reprotected = true;
  double goodput = 0.0;
  uint64_t catchup_us = 0;  ///< Slowest restarted peer's catch-up.
  size_t lifecycle_events = 0;
  std::map<std::string, uint64_t> retries;  ///< By retry policy.
  sim::SimTime final_us = 0;  ///< Virtual clock once the campaign drained.
};

CampaignOutcome RunCampaign(bool churned) {
  std::vector<std::string> paths;
  pgrid::GenerateBalancedPaths(kRegions, "", &paths);

  OverlayOptions options;
  options.seed = 20260808;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 5;
  options.peer.replication_target = 3;
  options.peer.reprotect_period = 500 * kMs;
  options.peer.reprotect_until = 20 * kS;
  Overlay overlay(options);
  overlay.AddPeers(4 * kRegions);  // Region g: {g, g+16, g+32, g+48}.
  overlay.BuildWithPaths(paths);

  for (int i = 0; i < 400; ++i) {
    std::string value(1, static_cast<char>((i * 37) % 256));
    value += "seed-" + std::to_string(i);
    Entry e;
    e.key = pgrid::OpHash(value);
    e.id = "id";
    e.version = 1;
    overlay.InsertDirect(e);
  }

  CampaignOutcome out;
  if (churned) {
    // The same 20-event script the chaos churn campaign runs: six
    // crash-restart cycles across distinct regions, two permanent
    // crashes concentrated on region 7 (forcing re-protection), three
    // graceful leaves, three auto-sponsored joins.
    net::ChurnSchedule churn;
    churn.Crash(1, 1 * kS, /*restart_at=*/3 * kS)
        .Crash(18, 1200 * kMs, /*restart_at=*/3200 * kMs)
        .Crash(35, 1500 * kMs, /*restart_at=*/3500 * kMs)
        .Crash(52, 1800 * kMs, /*restart_at=*/3800 * kMs)
        .Crash(5, 2 * kS, /*restart_at=*/4 * kS)
        .Crash(22, 2200 * kMs, /*restart_at=*/4200 * kMs)
        .Crash(39, 2500 * kMs)
        .Crash(55, 2800 * kMs)
        .Leave(10, 1 * kS, /*drain_us=*/300 * kMs)
        .Leave(27, 1300 * kMs, /*drain_us=*/300 * kMs)
        .Leave(44, 1600 * kMs, /*drain_us=*/300 * kMs)
        .Join(4500 * kMs)
        .Join(5 * kS)
        .Join(5500 * kMs);
    out.lifecycle_events = churn.EventCount();
    overlay.InstallChurn(churn);
  }

  auto& sim = overlay.scheduler();
  std::vector<Key> acked_keys;

  // The op stream: one insert every 25 ms over [0.5 s, 5.5 s) from
  // initiators that are never scripted down.
  const std::vector<net::PeerId> initiators = {8, 9, 11, 13, 14, 15};
  for (int i = 0; i < kOps; ++i) {
    sim.ScheduleAt(500 * kMs + i * 25 * kMs, [&, i] {
      std::string value(1, static_cast<char>((i * 53) % 256));
      value += "live-" + std::to_string(i);
      Entry e;
      e.key = pgrid::OpHash(value);
      e.id = "id";
      e.version = 1;
      ++out.attempted;
      overlay.peer(initiators[i % initiators.size()])
          ->Insert(e, [&, e](Status status) {
            if (status.ok()) {
              ++out.acked;
              acked_keys.push_back(e.key);
            }
          });
    });
  }

  // Anti-entropy sweeps once the lifecycle settles: every live member
  // pulls, three rounds.
  for (sim::SimTime at : {8 * kS, 9 * kS, 10 * kS}) {
    sim.ScheduleAt(at, [&] {
      for (net::PeerId p = 0; p < overlay.size(); ++p) {
        if (overlay.IsAlive(p) && overlay.peer(p)->path().size() > 0) {
          overlay.peer(p)->PullFromReplica([](Status) {});
        }
      }
    });
  }

  sim.RunUntilIdle();
  out.retries = overlay.transport().stats().retries_by_policy;
  out.final_us = sim.Now();

  // Regions, from live members only.
  std::map<std::string, std::vector<net::PeerId>> regions;
  for (net::PeerId p = 0; p < overlay.size(); ++p) {
    if (overlay.IsAlive(p) && overlay.peer(p)->path().size() > 0) {
      regions[std::string(overlay.peer(p)->path().bits())].push_back(p);
    }
  }
  if (regions.size() != kRegions) out.reprotected = false;
  for (const auto& [bits, members] : regions) {
    if (members.size() < options.peer.replication_target) {
      out.reprotected = false;
    }
    const uint32_t digest = StoreDigest(overlay.peer(members[0])->store());
    for (size_t i = 1; i < members.size(); ++i) {
      if (StoreDigest(overlay.peer(members[i])->store()) != digest) {
        out.converged = false;
      }
    }
  }
  for (const auto& key : acked_keys) {
    auto found = overlay.LookupSync(0, key);
    if (!found.ok() || found->entries.empty()) ++out.lost_acks;
  }
  out.goodput = out.attempted == 0
                    ? 0.0
                    : static_cast<double>(out.acked) / out.attempted;
  out.catchup_us = overlay.AggregateLifecycleStats().max_restart_catchup_us;
  return out;
}

double g_goodput_retained = 0.0;
double g_catchup_ms = 0.0;
bool g_zero_lost_acks = false;
bool g_converged = false;
bool g_reprotected = false;
CampaignOutcome g_churned;

void RunGateCampaign() {
  bench::Banner("churn-campaign",
                "Scripted peer lifecycle (crash-restart, permanent loss, "
                "graceful leave, live join) over 64 peers: goodput "
                "retained, post-restart catch-up, and the lifecycle "
                "invariants (DESIGN.md §11).");
  CampaignOutcome clean = RunCampaign(/*churned=*/false);
  CampaignOutcome churned = RunCampaign(/*churned=*/true);
  g_goodput_retained =
      clean.goodput == 0.0 ? 0.0 : churned.goodput / clean.goodput;
  g_catchup_ms = static_cast<double>(churned.catchup_us) / 1000.0;
  g_zero_lost_acks = churned.lost_acks == 0 && clean.lost_acks == 0;
  g_converged = churned.converged && clean.converged;
  g_reprotected = churned.reprotected;
  g_churned = churned;
  std::printf("lifecycle events:    %zu\n", churned.lifecycle_events);
  std::printf("churn-free goodput:  %.3f (%zu/%zu acked)\n", clean.goodput,
              clean.acked, clean.attempted);
  std::printf("churned goodput:     %.3f (%zu/%zu acked)\n",
              churned.goodput, churned.acked, churned.attempted);
  std::printf("goodput retained:    %.3f\n", g_goodput_retained);
  std::printf("slowest catch-up:    %.1f ms after restart\n", g_catchup_ms);
  std::printf("lost acked writes:   %zu\n", churned.lost_acks);
  std::printf("replica convergence: %s\n",
              g_converged ? "byte-identical" : "DIVERGED");
  std::printf("re-protection:       %s\n\n",
              g_reprotected ? "every region at target"
                            : "UNDER-PROTECTED REGIONS REMAIN");
}

// Wall time of simulating the full churned campaign (scheduler + churn
// plane + lifecycle protocol + guard probing under load).
void BM_ChurnCampaign(benchmark::State& state) {
  for (auto _ : state) {
    CampaignOutcome out = RunCampaign(/*churned=*/true);
    benchmark::DoNotOptimize(out.acked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_ChurnCampaign)->Unit(benchmark::kMillisecond);

// Per-send cost of the churn plane: the pure liveness-window check on the
// transport hot path, with a realistic mixed schedule installed.
void BM_ChurnPlaneDown(benchmark::State& state) {
  net::ChurnSchedule schedule;
  schedule.Crash(3, 1 * kS, 2 * kS)
      .Crash(9, 2 * kS)
      .Leave(5, 3 * kS, 500 * kMs)
      .Join(4 * kS);
  schedule.joins[0].peer = 12;
  net::ChurnPlane plane(schedule);
  sim::SimTime now = 0;
  for (auto _ : state) {
    bool down = plane.Down(now, static_cast<net::PeerId>(now % 16));
    benchmark::DoNotOptimize(down);
    now += 131;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChurnPlaneDown);

}  // namespace
}  // namespace unistore

int main(int argc, char** argv) {
  unistore::RunGateCampaign();

  unistore::bench::GateJson gates;
  gates.Add("churn_goodput_retained", unistore::g_goodput_retained);
  gates.Add("churn_catchup_ms", unistore::g_catchup_ms);
  gates.Add("churn_zero_lost_acks_ok", unistore::g_zero_lost_acks ? 1 : 0);
  gates.Add("churn_convergence_ok", unistore::g_converged ? 1 : 0);
  gates.Add("churn_reprotection_ok", unistore::g_reprotected ? 1 : 0);
  gates.Add("churn_goodput_ok",
            unistore::g_goodput_retained >= 0.5 ? 1 : 0);
  gates.Add("churn_catchup_ok",
            unistore::g_catchup_ms > 0 && unistore::g_catchup_ms <= 5000.0
                ? 1
                : 0);
  unistore::bench::AddRetryGates(&gates, "churn",
                                 unistore::g_churned.retries,
                                 unistore::g_churned.final_us);
  gates.WriteTo("BENCH_churn_gates.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (!unistore::g_zero_lost_acks) {
    std::printf("FAIL: an acknowledged write was lost under churn\n");
    return 1;
  }
  if (!unistore::g_converged) {
    std::printf("FAIL: a region did not converge byte-identically\n");
    return 1;
  }
  if (!unistore::g_reprotected) {
    std::printf("FAIL: a region ended under the replication target\n");
    return 1;
  }
  if (unistore::g_goodput_retained < 0.5) {
    std::printf("FAIL: goodput retained %.3f below the 0.5 floor\n",
                unistore::g_goodput_retained);
    return 1;
  }
  if (unistore::g_catchup_ms <= 0 || unistore::g_catchup_ms > 5000.0) {
    std::printf("FAIL: post-restart catch-up %.1f ms outside (0, 5000]\n",
                unistore::g_catchup_ms);
    return 1;
  }
  return 0;
}
