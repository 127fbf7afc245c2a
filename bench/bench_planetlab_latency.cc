// Experiment C2 (paper §4): "even with up to 400 PlanetLab nodes query
// answer times are still only a couple of seconds".
//
// The PlanetLab testbed is substituted by the WAN latency model
// (DESIGN.md §7): per-pair lognormal one-way delays (median ~40 ms) plus
// jitter. We sweep the network size and report virtual query latencies for
// a representative query mix. The expected shape: latencies in the
// 0.1 - few-seconds range, growing slowly (logarithmically) with N — at
// N=400, "a couple of seconds" for the heavier queries.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/histogram.h"
#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

namespace {

struct QueryCase {
  const char* label;
  std::string vql;
};

std::vector<QueryCase> QueryMix() {
  return {
      {"exact", "SELECT ?n WHERE { (?a,'age',30) (?a,'name',?n) }"},
      {"range",
       "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) "
       "FILTER ?g >= 30 AND ?g < 50 }"},
      {"join3",
       "SELECT ?t,?cn WHERE { (?p,'title',?t) (?p,'published_in',?cn) "
       "(?c,'confname',?cn) (?c,'year',2005) }"},
      {"similarity",
       "SELECT ?c,?s WHERE { (?c,'series',?s) "
       "FILTER edist(?s,'ICDE') < 3 }"},
      {"skyline",
       "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
       "(?a,'num_of_pubs',?c) } ORDER BY SKYLINE OF ?g MIN, ?c MAX"},
  };
}

void PrintLatencies() {
  bench::Banner(
      "C2 / PlanetLab-scale latency",
      "WAN latency model (lognormal, median ~40ms one-way + jitter): query "
      "answer times should stay in the low seconds up to N=400+ peers.");
  bench::Table table({"peers", "query", "p50 latency", "p95 latency",
                      "msgs", "rows"});
  for (size_t n : {50, 100, 200, 400}) {
    core::ClusterOptions options;
    options.peers = n;
    options.seed = 100 + n;
    options.latency = core::ClusterOptions::Latency::kWan;
    core::Cluster cluster(options);

    core::BibliographyOptions data;
    data.authors = 40;
    data.publications_per_author = 2;
    data.seed = 9;
    auto tuples = core::GenerateBibliography(data).AllTuples();
    for (size_t i = 0; i < tuples.size(); ++i) {
      auto via = static_cast<net::PeerId>(i % cluster.size());
      if (!cluster.InsertTupleSync(via, tuples[i]).ok()) return;
    }
    cluster.scheduler().RunUntilIdle();
    cluster.RefreshStats();

    Rng rng(n);
    for (const auto& qc : QueryMix()) {
      SampleStats latency_ms;
      SampleStats messages;
      size_t rows = 0;
      for (int rep = 0; rep < 5; ++rep) {
        auto via = static_cast<net::PeerId>(rng.NextBounded(n));
        auto measured = cluster.QueryMeasured(via, qc.vql);
        if (!measured.ok()) continue;
        latency_ms.Add(
            static_cast<double>(measured->virtual_latency_us) / 1000.0);
        messages.Add(
            static_cast<double>(measured->traffic.messages_sent));
        rows = measured->result.rows.size();
      }
      table.AddRow({std::to_string(n), qc.label,
                    bench::Fmt("%.0f ms", latency_ms.Percentile(50)),
                    bench::Fmt("%.0f ms", latency_ms.Percentile(95)),
                    bench::Fmt("%.0f", messages.mean()),
                    std::to_string(rows)});
    }
  }
  table.Print();
  std::printf("paper claim: 'query answer times ... only a couple of "
              "seconds' at up to 400 nodes.\n");
}

void BM_WanQuery(benchmark::State& state) {
  core::ClusterOptions options;
  options.peers = 100;
  options.seed = 77;
  options.latency = core::ClusterOptions::Latency::kWan;
  core::Cluster cluster(options);
  core::BibliographyOptions data;
  data.authors = 20;
  data.seed = 9;
  auto tuples = core::GenerateBibliography(data).AllTuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    (void)cluster.InsertTupleSync(
        static_cast<net::PeerId>(i % cluster.size()), tuples[i]);
  }
  cluster.scheduler().RunUntilIdle();
  cluster.RefreshStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.QuerySync(
        3, "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) }"));
  }
}
BENCHMARK(BM_WanQuery);

}  // namespace

int main(int argc, char** argv) {
  PrintLatencies();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
