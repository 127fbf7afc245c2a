// Batched envelope execution vs one unsplit walk (DESIGN.md §4, ROADMAP
// "batch and pipeline the executor's mutant-query-plan envelopes").
//
// An 88-peer overlay whose trie is deep under the 'age' partition (32
// in-partition leaves) runs the same Migrate join — 256 left bindings
// against 400 partition triples — under three envelope configurations:
// the baseline (one walk carrying every binding), fan-out only, and
// fan-out + binding chunking. Every configuration streams partial replies
// and forwards before the local join. Reported per configuration:
// simulated completion time, envelope messages, the longest
// single-envelope hop chain, streamed partials, bytes on the wire, and
// whether the result bytes match the baseline. The exit code encodes
// "results byte-identical across configurations AND fan-out + chunking
// beats the baseline on max hops and completion time".
//
// Writes BENCH_envelope_pipeline.json next to the binary for the CI
// artifact job.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "pgrid/overlay.h"
#include "sim/scheduler.h"
#include "triple/index.h"
#include "triple/store_service.h"

using namespace unistore;

namespace {

constexpr size_t kInsideLeaves = 32;
constexpr size_t kTriples = 400;
constexpr size_t kLeftBindings = 256;

std::string SpreadValue(size_t i) {
  std::string v;
  v.push_back(static_cast<char>(32 + (i * 37) % 224));
  v += "v" + std::to_string(i);
  return v;
}

struct Config {
  const char* name;
  exec::EnvelopeOptions options;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  exec::EnvelopeOptions baseline;
  baseline.fanout = 1;
  baseline.max_bindings_per_envelope = 0;
  configs.push_back({"baseline (one walk)", baseline});

  exec::EnvelopeOptions fanout = baseline;
  fanout.fanout = 4;
  configs.push_back({"fanout=4", fanout});

  exec::EnvelopeOptions chunked = fanout;
  chunked.max_bindings_per_envelope = 64;
  configs.push_back({"fanout=4 chunk=64", chunked});
  return configs;
}

struct Row {
  std::string config;
  double virtual_ms = 0;
  uint64_t envelope_msgs = 0;
  uint64_t partial_msgs = 0;
  uint64_t bytes = 0;
  uint32_t max_walk_hops = 0;
  uint32_t peers_visited = 0;
  uint32_t envelopes = 0;
  std::string rows;  ///< Serialized result rows (equality check).
};

std::vector<exec::Binding> MakeLeft() {
  std::vector<exec::Binding> left;
  left.reserve(kLeftBindings);
  for (size_t i = 0; i < kLeftBindings; ++i) {
    const std::string oid = (i % 4 < 3) ? "p" + std::to_string(i)
                                        : "ghost" + std::to_string(i);
    left.push_back({{"a", triple::Value::String(oid)},
                    {"tag", triple::Value::Int(static_cast<int64_t>(i))}});
  }
  return left;
}

std::vector<Row> RunConfigs() {
  const auto paths = pgrid::PartitionCoverPaths(
      triple::AttrPrefixRange("age", ""), kInsideLeaves);
  pgrid::OverlayOptions options;
  options.seed = 1309;
  pgrid::Overlay overlay(options, std::make_unique<sim::ConstantLatency>(
                                      1 * sim::kMicrosPerMilli));
  overlay.AddPeers(paths.size());
  overlay.BuildWithPaths(paths);
  std::vector<std::unique_ptr<exec::QueryService>> services;
  for (size_t i = 0; i < paths.size(); ++i) {
    services.push_back(std::make_unique<exec::QueryService>(
        overlay.peer(static_cast<net::PeerId>(i))));
  }
  for (size_t i = 0; i < kTriples; ++i) {
    triple::Triple t("p" + std::to_string(i), "age",
                     triple::Value::String(SpreadValue(i)));
    for (auto& entry : triple::EntriesForTriple(t, 1)) {
      overlay.InsertDirect(entry);
    }
  }
  // Statistics rounds: the initiator's gossiped peer-path sample steers
  // the fan-out split (branches follow the trie shape).
  for (auto& service : services) service->BuildLocalStats(1000);
  for (int round = 0; round < 3; ++round) {
    for (auto& service : services) service->GossipStats(4);
    overlay.scheduler().RunUntilIdle();
  }

  vql::TriplePattern pattern;
  pattern.subject = vql::Term::Var("a");
  pattern.predicate = vql::Term::Lit(triple::Value::String("age"));
  pattern.object = vql::Term::Var("g");

  std::vector<Row> rows;
  for (const Config& config : Configs()) {
    services[0]->set_envelope_options(config.options);
    const net::TrafficStats before = overlay.transport().stats();
    const sim::SimTime start = overlay.scheduler().Now();
    std::optional<Result<exec::MigrateResult>> out;
    services[0]->RunMigrateJoin(
        pattern, MakeLeft(),
        [&out](Result<exec::MigrateResult> r) { out = std::move(r); });
    overlay.scheduler().RunUntil([&out] { return out.has_value(); });
    const sim::SimTime stop = overlay.scheduler().Now();
    const net::TrafficStats delta =
        overlay.transport().stats().Since(before);

    Row row;
    row.config = config.name;
    row.virtual_ms = static_cast<double>(stop - start) / 1000.0;
    auto type_count = [&delta](net::MessageType type) -> uint64_t {
      auto it = delta.per_type.find(type);
      return it == delta.per_type.end() ? 0 : it->second;
    };
    row.envelope_msgs = type_count(net::MessageType::kPlanExec);
    row.partial_msgs = type_count(net::MessageType::kPlanExecPartial);
    row.bytes = delta.bytes_sent;
    if (out.has_value() && out->ok()) {
      row.max_walk_hops = (*out)->max_walk_hops;
      row.peers_visited = (*out)->peers_visited;
      row.envelopes = (*out)->envelopes_launched;
      for (const auto& binding : (*out)->rows) {
        row.rows += exec::BindingToString(binding);
        row.rows.push_back('\n');
      }
    } else {
      row.rows = "<error: " +
                 (out.has_value() ? out->status().ToString()
                                  : std::string("drained")) +
                 ">";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void WriteJson(const std::vector<Row>& rows, bool identical, bool faster) {
  std::FILE* f = std::fopen("BENCH_envelope_pipeline.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"benchmark\": \"envelope_pipeline\",\n");
  std::fprintf(f, "  \"results_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"batched_faster\": %s,\n",
               faster ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", "
                 "\"virtual_ms\": %.2f, \"envelope_msgs\": %llu, "
                 "\"partial_msgs\": %llu, \"bytes\": %llu, "
                 "\"max_walk_hops\": %u, \"peers_visited\": %u, "
                 "\"envelopes\": %u}%s\n",
                 r.config.c_str(), r.virtual_ms,
                 static_cast<unsigned long long>(r.envelope_msgs),
                 static_cast<unsigned long long>(r.partial_msgs),
                 static_cast<unsigned long long>(r.bytes), r.max_walk_hops,
                 r.peers_visited, r.envelopes,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  bench::Banner(
      "E1 / envelope batching & pipelining",
      "Identical Migrate join (256 bindings x 400 partition triples, "
      "88-peer overlay, 32-peer partition) under three envelope "
      "configurations. Fan-out + chunking must return "
      "byte-identical rows with a shorter hop chain and lower simulated "
      "completion time than one unsplit walk.");

  const std::vector<Row> all = RunConfigs();

  const std::string& reference = all.front().rows;
  bool identical = reference.rfind("<error", 0) != 0;
  for (const Row& row : all) {
    identical = identical && row.rows == reference;
  }
  const Row& baseline = all.front();
  const Row& batched = all[Configs().size() - 1];
  const bool faster = batched.max_walk_hops < baseline.max_walk_hops &&
                      batched.virtual_ms < baseline.virtual_ms;

  bench::Table table({"config", "virtual ms", "env msgs",
                      "partials", "max hops", "peers", "envelopes",
                      "KiB", "rows match"});
  for (const Row& row : all) {
    table.AddRow({row.config, bench::Fmt("%.1f", row.virtual_ms),
                  bench::FmtInt(row.envelope_msgs),
                  bench::FmtInt(row.partial_msgs),
                  bench::FmtInt(row.max_walk_hops),
                  bench::FmtInt(row.peers_visited),
                  bench::FmtInt(row.envelopes),
                  bench::Fmt("%.1f", static_cast<double>(row.bytes) / 1024),
                  row.rows == reference ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "gate: identical rows across configs = %s, "
      "fanout+chunking beats baseline (hops & time) = %s\n",
      identical ? "yes" : "NO", faster ? "yes" : "NO");
  WriteJson(all, identical, faster);
  return identical && faster ? 0 : 1;
}
