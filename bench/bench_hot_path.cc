// Hot-path serving layer under Zipf-skewed traffic (DESIGN.md §8).
//
// Two gated phases, exit code encodes the gates:
//  1. Zipf lookups, hot-key fan-out off vs on: identical results, and
//     fan-out must cut median latency (redirected lookups hit a replica in
//     one hop instead of greedy-routing to the single owner).
//  2. Flash-crowd of concurrent joins through bounded admission queues:
//     load is shed with retry-after, but zero queries are dropped forever.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datagen.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "pgrid/ophash.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

using namespace unistore;

namespace {

bench::GateJson g_gates;
bool g_lookup_identical = true;
bool g_fanout_effective = true;
bool g_no_drop = true;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

// --- Phase 1: Zipf lookups, fan-out off vs on -------------------------------

struct LookupRun {
  std::vector<double> latencies_us;
  std::string results;  ///< Concatenated entry ids, in arrival order.
  uint64_t redirects = 0;
  uint64_t adverts = 0;
  size_t serving_peers = 0;  ///< Peers of the hottest group that served.
};

LookupRun RunZipfLookups(bool fanout_on,
                         const std::vector<core::ZipfQuery>& workload) {
  pgrid::OverlayOptions options;
  options.seed = 808;
  options.replication = 3;
  if (fanout_on) options.peer.hot_key_qps_threshold = 100;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(48);
  overlay.BuildBalanced();

  for (size_t rank = 0; rank < 64; ++rank) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "val-%05zu", rank);
    pgrid::Entry e;
    e.key = pgrid::OpHash(buf);
    e.id = std::string("id-") + buf;
    e.version = 1;
    overlay.InsertDirect(e);
  }

  // Fixed initiator outside the hottest value's replica group, so the hot
  // traffic actually crosses the network.
  const pgrid::Key hot_key = pgrid::OpHash("val-00000");
  const auto hot_owners = overlay.ResponsiblePeers(hot_key);
  net::PeerId initiator = 0;
  while (std::find(hot_owners.begin(), hot_owners.end(), initiator) !=
         hot_owners.end()) {
    ++initiator;
  }

  LookupRun run;
  for (const auto& q : workload) {
    const sim::SimTime start = overlay.simulation().Now();
    auto result = overlay.LookupSync(initiator, pgrid::OpHash(q.value));
    run.latencies_us.push_back(
        static_cast<double>(overlay.simulation().Now() - start));
    if (!result.ok()) {
      run.results += "ERROR:" + result.status().ToString() + "\n";
      continue;
    }
    for (const auto& e : result->entries) run.results += e.id + "\n";
  }
  run.redirects = overlay.peer(initiator)->fanout_redirects();
  for (net::PeerId owner : hot_owners) {
    run.adverts += overlay.peer(owner)->hot_adverts();
    if (overlay.peer(owner)->lookups_served() > 0) ++run.serving_peers;
  }
  return run;
}

void PrintLookupPhase() {
  bench::Banner(
      "hot-path / Zipf lookup fan-out",
      "Zipf-skewed lookups from one initiator: hot partitions advertise "
      "replica-serve and the initiator round-robins across the group, "
      "cutting routed hops off the tail.");
  core::ZipfQueryOptions zipf;
  zipf.count = 1200;
  zipf.theta = 1.1;
  zipf.read_ratio = 1.0;
  zipf.value_universe = 64;
  zipf.seed = 4242;
  const auto workload = core::GenerateZipfQueries(zipf);

  auto off = RunZipfLookups(false, workload);
  auto on = RunZipfLookups(true, workload);

  g_lookup_identical = off.results == on.results;
  const double p50_off = Percentile(off.latencies_us, 0.50);
  const double p99_off = Percentile(off.latencies_us, 0.99);
  const double p50_on = Percentile(on.latencies_us, 0.50);
  const double p99_on = Percentile(on.latencies_us, 0.99);
  // The Zipf tail (cold, never-hot keys) dominates p99 in both runs, so
  // fan-out is gated on the median — where the hot head lives — plus the
  // redirects actually happening.
  g_fanout_effective = on.redirects > 0 && p50_on < p50_off;

  bench::Table table({"fan-out", "p50 us", "p99 us", "redirects", "adverts",
                      "hot-group servers"});
  table.AddRow({"off", bench::Fmt("%.0f", p50_off),
                bench::Fmt("%.0f", p99_off), bench::FmtInt(off.redirects),
                bench::FmtInt(off.adverts),
                std::to_string(off.serving_peers)});
  table.AddRow({"on", bench::Fmt("%.0f", p50_on), bench::Fmt("%.0f", p99_on),
                bench::FmtInt(on.redirects), bench::FmtInt(on.adverts),
                std::to_string(on.serving_peers)});
  table.Print();
  std::printf("p50 speedup: %.2fx; results identical: %s\n",
              p50_on > 0 ? p50_off / p50_on : 0,
              g_lookup_identical ? "yes" : "NO");

  g_gates.Add("lookup_p50_off_us", p50_off);
  g_gates.Add("lookup_p99_off_us", p99_off);
  g_gates.Add("lookup_p50_on_us", p50_on);
  g_gates.Add("lookup_p99_on_us", p99_on);
  g_gates.Add("lookup_fanout_effective_ok", g_fanout_effective ? 1 : 0);
  g_gates.Add("lookup_results_identical_ok", g_lookup_identical ? 1 : 0);
  g_gates.Add("fanout_redirects", static_cast<double>(on.redirects));
}

// --- Phase 2: envelope joins under admission control ----------------------

constexpr size_t kJoinLeaves = 12;

vql::TriplePattern AgePattern() {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Lit(triple::Value::String("age"));
  p.object = vql::Term::Var("g");
  return p;
}

struct JoinHarness {
  std::unique_ptr<pgrid::Overlay> overlay;
  std::vector<std::unique_ptr<exec::QueryService>> services;
};

JoinHarness BuildJoinHarness(const exec::EnvelopeOptions& options) {
  const auto paths = pgrid::PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), kJoinLeaves);
  pgrid::OverlayOptions overlay_options;
  overlay_options.seed = 909;
  JoinHarness h;
  h.overlay = std::make_unique<pgrid::Overlay>(overlay_options);
  h.overlay->AddPeers(paths.size());
  h.overlay->BuildWithPaths(paths);
  for (size_t i = 0; i < paths.size(); ++i) {
    h.services.push_back(std::make_unique<exec::QueryService>(
        h.overlay->peer(static_cast<net::PeerId>(i))));
    h.services.back()->set_envelope_options(options);
  }
  for (int i = 0; i < 80; ++i) {
    std::string v;
    v.push_back(static_cast<char>(32 + (i * 37) % 224));
    v += "v" + std::to_string(i);
    triple::Triple t("p" + std::to_string(i), "age",
                     triple::Value::String(v));
    for (auto& entry : triple::EntriesForTriple(t, 1)) {
      h.overlay->InsertDirect(entry);
    }
  }
  return h;
}

// One left binding per stored subject.
std::vector<exec::Binding> LeftBindings() {
  std::vector<exec::Binding> left;
  for (size_t i = 0; i < 80; ++i) {
    left.push_back(
        {{"a", triple::Value::String("p" + std::to_string(i))}});
  }
  return left;
}

std::string RowsToString(const std::vector<exec::Binding>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += exec::BindingToString(row);
    out.push_back('\n');
  }
  return out;
}

void PrintAdmissionPhase() {
  bench::Banner(
      "hot-path / flash-crowd admission control",
      "A flash crowd of concurrent joins against bounded per-peer queues: "
      "overloaded peers shed with retry-after, coordinators defer and "
      "relaunch — every query must still complete.");
  exec::EnvelopeOptions options;
  options.fanout = 4;
  options.max_bindings_per_envelope = 16;
  options.join_visit_cost_us = 2000;
  options.admission_queue_depth = 2;
  JoinHarness h = BuildJoinHarness(options);

  const size_t kCrowd = 10;
  std::vector<std::optional<Result<exec::MigrateResult>>> outs(kCrowd);
  for (size_t q = 0; q < kCrowd; ++q) {
    h.services[q % h.services.size()]->RunMigrateJoin(
        AgePattern(), LeftBindings(),
        [&outs, q](Result<exec::MigrateResult> r) { outs[q] = std::move(r); });
  }
  h.overlay->simulation().RunUntilIdle();

  size_t completed = 0;
  uint32_t deferrals = 0;
  std::string expected;
  bool identical = true;
  for (auto& out : outs) {
    if (out.has_value() && out->ok()) {
      ++completed;
      deferrals += (*out)->deferrals;
      const std::string rows = RowsToString((*out)->rows);
      if (expected.empty()) expected = rows;
      identical = identical && rows == expected;
    }
  }
  uint64_t sheds = 0;
  for (const auto& service : h.services) sheds += service->sheds();
  g_no_drop = completed == kCrowd && identical;

  std::printf("completed %zu/%zu queries; sheds=%llu deferrals=%u; "
              "identical rows: %s\n",
              completed, kCrowd, static_cast<unsigned long long>(sheds),
              deferrals, identical ? "yes" : "NO");
  g_gates.Add("no_drop_ok", g_no_drop ? 1 : 0);
  g_gates.Add("overload_sheds", static_cast<double>(sheds));
  g_gates.Add("overload_deferrals", static_cast<double>(deferrals));
}

}  // namespace

int main() {
  PrintLookupPhase();
  PrintAdmissionPhase();
  g_gates.WriteTo("BENCH_hot_path_gates.json");
  int rc = 0;
  if (!g_lookup_identical) {
    std::printf("FAIL: fan-out changed lookup results\n");
    rc = 1;
  }
  if (!g_fanout_effective) {
    std::printf("FAIL: fan-out produced no redirects or no p50 win\n");
    rc = 1;
  }
  if (!g_no_drop) {
    std::printf("FAIL: queries dropped under admission control\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("all hot-path gates passed (identical results, p50 win "
                "under skew, zero dropped queries)\n");
  }
  return rc;
}
