// Experiment C6 (paper §2/§4): "ranking operators like top-N and
// skylines".
//
// Top-N: the ordered-walk pushdown (early-terminating sequential scan of
// the value-ordered A#v partition) vs ship-all (full scan, sort at the
// initiator). Expected shape: pushdown ships ~N entries instead of the
// whole partition, with the gap growing as the partition grows.
//
// Skyline: the distributed skyline query of the paper's §2 example —
// bindings are assembled at the initiator and reduced with a
// block-nested-loop dominance filter; reported is the reduction from
// candidate tuples to skyline size across data sizes.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

namespace {

std::unique_ptr<core::Cluster> BuildCluster(size_t people,
                                            uint64_t seed = 87) {
  core::ClusterOptions options;
  options.peers = 64;
  options.seed = seed;
  options.node.qgram_index = false;  // Not needed; faster loading.
  auto cluster = std::make_unique<core::Cluster>(options);
  Rng rng(seed);
  for (size_t i = 0; i < people; ++i) {
    triple::Tuple t;
    t.oid = "p" + std::to_string(i);
    // Spread first characters so the partition spans peers.
    t.attributes["name"] = triple::Value::String(
        std::string(1, static_cast<char>('a' + i % 26)) + "-person-" +
        std::to_string(i));
    t.attributes["age"] =
        triple::Value::Int(20 + static_cast<int64_t>(rng.NextBounded(60)));
    t.attributes["num_of_pubs"] =
        triple::Value::Int(static_cast<int64_t>(rng.NextBounded(40)));
    auto via = static_cast<net::PeerId>(i % cluster->size());
    if (!cluster->InsertTupleSync(via, t).ok()) return cluster;
  }
  cluster->scheduler().RunUntilIdle();
  cluster->RefreshStats();
  return cluster;
}

void PrintTopN() {
  bench::Banner(
      "C6a / top-N: ordered-walk pushdown vs ship-all",
      "ORDER BY ?age LIMIT n over 64 peers; the pushdown walks the "
      "value-ordered partition and stops after ~n entries.");
  bench::Table table({"data size", "top-n", "mode", "msgs", "KB moved",
                      "latency", "rows"});
  for (size_t people : {500, 2000}) {
    auto cluster = BuildCluster(people);
    for (uint64_t n : {1, 10, 100}) {
      std::string query =
          "SELECT ?g WHERE { (?a,'age',?g) } ORDER BY ?g LIMIT " +
          std::to_string(n);
      for (bool pushdown : {true, false}) {
        plan::PlannerOptions options;
        options.enable_topn_pushdown = pushdown;
        cluster->SetPlannerOptions(options);
        auto measured = cluster->QueryMeasured(5, query);
        if (!measured.ok()) continue;
        table.AddRow(
            {std::to_string(people), std::to_string(n),
             pushdown ? "ordered walk" : "ship-all",
             bench::FmtInt(measured->traffic.messages_sent),
             bench::Fmt("%.1f",
                        static_cast<double>(measured->traffic.bytes_sent) /
                            1024.0),
             bench::Fmt("%.0f ms",
                        static_cast<double>(measured->virtual_latency_us) /
                            1000.0),
             std::to_string(measured->result.rows.size())});
      }
    }
  }
  table.Print();
  std::printf("expected: ordered walk moves ~n entries (KB roughly flat in "
              "data size); ship-all moves the whole partition.\n");
}

void PrintSkyline() {
  bench::Banner(
      "C6b / skyline reduction",
      "The paper's young-vs-prolific skyline: candidates collected vs "
      "skyline size (the ranking operator's selectivity).");
  bench::Table table(
      {"people", "candidates", "skyline", "latency", "msgs"});
  for (size_t people : {200, 500, 2000}) {
    auto cluster = BuildCluster(people, 88);
    auto all = cluster->QueryMeasured(
        3,
        "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
        "(?a,'num_of_pubs',?c) }");
    auto sky = cluster->QueryMeasured(
        3,
        "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
        "(?a,'num_of_pubs',?c) } ORDER BY SKYLINE OF ?g MIN, ?c MAX");
    if (!all.ok() || !sky.ok()) continue;
    table.AddRow(
        {std::to_string(people), std::to_string(all->result.rows.size()),
         std::to_string(sky->result.rows.size()),
         bench::Fmt("%.0f ms",
                    static_cast<double>(sky->virtual_latency_us) / 1000.0),
         bench::FmtInt(sky->traffic.messages_sent)});
  }
  table.Print();
  std::printf("expected: skyline size grows ~logarithmically while "
              "candidates grow linearly.\n");
}

void BM_SkylineLocal(benchmark::State& state) {
  // Local BNL skyline cost over n random 2-d points.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<exec::Binding> rows;
  for (size_t i = 0; i < n; ++i) {
    exec::Binding b;
    b.emplace("x", triple::Value::Int(static_cast<int64_t>(
                       rng.NextBounded(1000))));
    b.emplace("y", triple::Value::Int(static_cast<int64_t>(
                       rng.NextBounded(1000))));
    rows.push_back(std::move(b));
  }
  std::vector<vql::SkylineKey> keys = {{"x", vql::SkylineDirection::kMin},
                                       {"y", vql::SkylineDirection::kMax}};
  for (auto _ : state) {
    auto copy = rows;
    benchmark::DoNotOptimize(exec::SkylineOf(std::move(copy), keys));
  }
}
BENCHMARK(BM_SkylineLocal)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  PrintTopN();
  PrintSkyline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
