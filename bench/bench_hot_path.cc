// Hot-path serving layer under overload (DESIGN.md §8).
//
// One gated phase, exit code encodes the gate: a flash crowd of
// concurrent joins through bounded admission queues sheds load with
// retry-after, but zero queries are dropped forever. (Replica-group
// fan-out is on every lookup; its identical-results check is
// HotKeyFanoutTest and its latency win shows on bench/e2e lookup_1024.)
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

using namespace unistore;

namespace {

bench::GateJson g_gates;
bool g_no_drop = true;

// --- Envelope joins under admission control ---------------------------------

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
  h.overlay->scheduler().RunUntilIdle();

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
  PrintAdmissionPhase();
  g_gates.WriteTo("BENCH_hot_path_gates.json");
  if (!g_no_drop) {
    std::printf("FAIL: queries dropped under admission control\n");
    return 1;
  }
  std::printf("all hot-path gates passed (zero dropped queries)\n");
  return 0;
}
