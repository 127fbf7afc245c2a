// Chaos benchmark (DESIGN.md §10): a scripted partition/heal + jitter +
// corruption + duplication campaign over a replicated overlay, measuring
//
//   - recovery time: heal -> victim replica re-converged via anti-entropy,
//   - goodput retained: acked-write ratio under chaos vs the same op
//     schedule on a fault-free network,
//
// and gating the degradation invariants the chaos test campaign pins:
// zero lost acknowledged writes and byte-identical replica convergence
// after heal + repair. Exit code encodes the gates;
// BENCH_chaos_gates.json carries them for the CI baseline diff.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "net/fault_plane.h"
#include "pgrid/overlay.h"
#include "pgrid/run_summary.h"
#include "triple/index.h"

namespace unistore {
namespace {

using pgrid::Entry;
using pgrid::Key;
using pgrid::LocalStore;
using pgrid::Overlay;
using pgrid::OverlayOptions;

constexpr sim::SimTime kMs = sim::kMicrosPerMilli;
constexpr sim::SimTime kS = sim::kMicrosPerSecond;
constexpr sim::SimTime kPartitionFrom = 1 * kS;
constexpr sim::SimTime kHealAt = 4 * kS;
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
  double goodput = 0.0;
  sim::SimTime recovery_us = 0;  ///< Heal -> victim replica convergence.
  std::map<std::string, uint64_t> retries;  ///< By retry policy.
  sim::SimTime final_us = 0;  ///< Virtual clock once the campaign drained.
};

CampaignOutcome RunCampaign(bool faulted) {
  const auto paths = pgrid::PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), /*inside_leaves=*/4);
  const size_t num_paths = paths.size();

  OverlayOptions options;
  options.seed = 20260808;
  options.replication = 2;
  options.peer.request_timeout = 300 * kMs;
  options.peer.request_retries = 5;
  Overlay overlay(options);
  overlay.AddPeers(2 * num_paths);
  overlay.BuildWithPaths(paths);

  const auto serving = overlay.ResponsiblePeers(
      triple::AttrValueKey("age", triple::Value::Int(0)));
  const net::PeerId victim = std::max(serving[0], serving[1]);
  const net::PeerId partner = std::min(serving[0], serving[1]);

  if (faulted) {
    net::FaultSchedule faults;
    faults.PartitionPair(kPartitionFrom, kHealAt, victim, net::kAnyPeer);
    faults.Delay(0, net::kFaultForever, 0, net::kAnyPeer, /*delay_us=*/1500,
                 /*jitter_us=*/800);
    faults.Corrupt(0, kHealAt, net::kAnyPeer, net::kAnyPeer, 0.02);
    faults.Duplicate(0, kHealAt, net::kAnyPeer, net::kAnyPeer, 0.05);
    overlay.transport().SetFaultSchedule(faults);
  }

  auto& sim = overlay.scheduler();
  CampaignOutcome out;
  std::vector<Key> acked_keys;

  // The op stream: one triple insert (three index entries) every 25 ms
  // over [0, 5 s) from rotating non-victim initiators. A triple counts as
  // acked only when every entry's callback reported OK.
  const size_t outside = num_paths - 4;
  for (int i = 0; i < kOps; ++i) {
    sim.ScheduleAt(i * 25 * kMs, [&, i] {
      triple::Triple t("s" + std::to_string(i), "age",
                       triple::Value::Int(i));
      auto entries = triple::EntriesForTriple(t, 1);
      auto initiator = static_cast<net::PeerId>(i % outside);
      auto ok_all = std::make_shared<bool>(true);
      auto left = std::make_shared<size_t>(entries.size());
      ++out.attempted;
      for (auto& e : entries) {
        overlay.peer(initiator)->Insert(
            e, [&, entries, ok_all, left](Status status) {
              if (!status.ok()) *ok_all = false;
              if (--*left == 0 && *ok_all) {
                ++out.acked;
                for (const auto& entry : entries) {
                  acked_keys.push_back(entry.key);
                }
              }
            });
      }
    });
  }

  // Recovery: the victim pulls from its partner the moment the partition
  // heals; recovery time is heal -> repair completion.
  bool victim_repaired = false;
  sim.ScheduleAt(kHealAt, [&] {
    overlay.peer(victim)->PullFromReplica([&](Status status) {
      victim_repaired = status.ok();
      out.recovery_us = sim.Now() - kHealAt;
    });
  });

  // Anti-entropy sweep once the op stream has drained: both directions
  // per data-holding replica pair.
  std::vector<std::pair<net::PeerId, net::PeerId>> pairs;
  size_t repairs_done = 0;
  sim.ScheduleAt(6 * kS, [&] {
    for (size_t p = 0; p < num_paths; ++p) {
      auto a = static_cast<net::PeerId>(p);
      auto b = static_cast<net::PeerId>(p + num_paths);
      if (overlay.peer(a)->store().total_size() == 0 &&
          overlay.peer(b)->store().total_size() == 0) {
        continue;
      }
      pairs.emplace_back(a, b);
      overlay.peer(a)->PullFromReplica([&](Status) { ++repairs_done; });
    }
  });
  sim.ScheduleAt(7 * kS, [&] {
    for (const auto& pair : pairs) {
      overlay.peer(pair.second)->PullFromReplica(
          [&](Status) { ++repairs_done; });
    }
  });

  sim.RunUntil([&] { return repairs_done == 2 * pairs.size() &&
                            !pairs.empty(); });
  sim.RunUntilIdle();
  out.retries = overlay.transport().stats().retries_by_policy;
  out.final_us = sim.Now();

  if (faulted && !victim_repaired) out.converged = false;
  for (const auto& [a, b] : pairs) {
    if (StoreDigest(overlay.peer(a)->store()) !=
        StoreDigest(overlay.peer(b)->store())) {
      out.converged = false;
    }
  }
  for (const auto& key : acked_keys) {
    auto found = overlay.LookupSync(1, key);
    if (!found.ok() || found->entries.empty()) ++out.lost_acks;
  }
  out.goodput = out.attempted == 0
                    ? 0.0
                    : static_cast<double>(out.acked) / out.attempted;
  (void)partner;
  return out;
}

double g_goodput_retained = 0.0;
double g_recovery_ms = 0.0;
bool g_zero_lost_acks = false;
bool g_converged = false;
CampaignOutcome g_chaotic;

void RunGateCampaign() {
  bench::Banner("chaos-campaign",
                "Scripted partition/heal + jitter + corruption + "
                "duplication: recovery time, goodput retained, and the "
                "degradation invariants (DESIGN.md §10).");
  CampaignOutcome clean = RunCampaign(/*faulted=*/false);
  CampaignOutcome chaotic = RunCampaign(/*faulted=*/true);
  g_goodput_retained =
      clean.goodput == 0.0 ? 0.0 : chaotic.goodput / clean.goodput;
  g_recovery_ms = static_cast<double>(chaotic.recovery_us) / 1000.0;
  g_zero_lost_acks = chaotic.lost_acks == 0 && clean.lost_acks == 0;
  g_converged = chaotic.converged && clean.converged;
  g_chaotic = chaotic;
  std::printf("fault-free goodput:  %.3f (%zu/%zu acked)\n", clean.goodput,
              clean.acked, clean.attempted);
  std::printf("chaotic goodput:     %.3f (%zu/%zu acked)\n",
              chaotic.goodput, chaotic.acked, chaotic.attempted);
  std::printf("goodput retained:    %.3f\n", g_goodput_retained);
  std::printf("recovery time:       %.1f ms after heal\n", g_recovery_ms);
  std::printf("lost acked writes:   %zu\n", chaotic.lost_acks);
  std::printf("replica convergence: %s\n\n",
              g_converged ? "byte-identical" : "DIVERGED");
}

// Wall time of simulating the full chaotic campaign (scheduler + fault
// plane + retry machinery under load).
void BM_ChaosCampaign(benchmark::State& state) {
  for (auto _ : state) {
    CampaignOutcome out = RunCampaign(/*faulted=*/true);
    benchmark::DoNotOptimize(out.acked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_ChaosCampaign)->Unit(benchmark::kMillisecond);

// Per-send cost of the fault plane: rule matching + per-peer RNG draws on
// the transport hot path, with a realistic mixed schedule installed.
void BM_FaultPlaneApply(benchmark::State& state) {
  net::FaultSchedule schedule;
  schedule.PartitionPair(0, 1 * kS, 3, net::kAnyPeer);
  schedule.Delay(0, net::kFaultForever, 1, net::kAnyPeer, 500, 250);
  schedule.Corrupt(0, net::kFaultForever, net::kAnyPeer, net::kAnyPeer,
                   0.01);
  schedule.Duplicate(0, net::kFaultForever, net::kAnyPeer, net::kAnyPeer,
                     0.02);
  net::FaultPlane plane(schedule);
  Rng rng(7);
  sim::SimTime now = 0;
  for (auto _ : state) {
    auto fx = plane.Apply(now, static_cast<net::PeerId>(now % 8),
                          static_cast<net::PeerId>((now + 1) % 8), &rng);
    benchmark::DoNotOptimize(fx);
    now += 13;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultPlaneApply);

}  // namespace
}  // namespace unistore

int main(int argc, char** argv) {
  unistore::RunGateCampaign();

  unistore::bench::GateJson gates;
  gates.Add("chaos_goodput_retained", unistore::g_goodput_retained);
  gates.Add("chaos_recovery_ms", unistore::g_recovery_ms);
  gates.Add("chaos_zero_lost_acks_ok",
            unistore::g_zero_lost_acks ? 1 : 0);
  gates.Add("chaos_convergence_ok", unistore::g_converged ? 1 : 0);
  gates.Add("chaos_goodput_ok",
            unistore::g_goodput_retained >= 0.5 ? 1 : 0);
  unistore::bench::AddRetryGates(&gates, "chaos",
                                 unistore::g_chaotic.retries,
                                 unistore::g_chaotic.final_us);
  gates.WriteTo("BENCH_chaos_gates.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (!unistore::g_zero_lost_acks) {
    std::printf("FAIL: an acknowledged write was lost under chaos\n");
    return 1;
  }
  if (!unistore::g_converged) {
    std::printf(
        "FAIL: replicas did not converge byte-identically after heal\n");
    return 1;
  }
  if (unistore::g_goodput_retained < 0.5) {
    std::printf("FAIL: goodput retained %.3f below the 0.5 floor\n",
                unistore::g_goodput_retained);
    return 1;
  }
  return 0;
}
