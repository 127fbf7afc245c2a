// Experiment F2 (paper Figure 2): the two example tuples
//   (a12, 'Similarity...', 'ICDE 2006 - Workshops', 2006)
//   (v34, 'Progressive...', 'ICDE 2005', 2005)
// decompose into 2 x 3 triples, each indexed 3 ways: 18 entries
// distributed over a network of 8 peers. This bench regenerates the
// figure's placement table and verifies origin-data reproduction from
// every index.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/datagen.h"
#include "triple/index.h"

using namespace unistore;

namespace {

std::string KindOf(const std::string& entry_id) {
  if (entry_id.rfind("o#", 0) == 0) return "OID";
  if (entry_id.rfind("a#", 0) == 0) return "A#v";
  if (entry_id.rfind("v#", 0) == 0) return "v";
  return "?";
}

void PrintPlacement() {
  bench::Banner("F2 / Figure 2",
                "18 triples of 2 example tuples distributed over 8 peers "
                "via the OID, A#v and v indexes.");
  core::ClusterOptions options;
  options.peers = 8;
  options.seed = 59;
  options.node.qgram_index = false;  // Count only the paper's 3 indexes.
  core::Cluster cluster(options);
  for (const auto& tuple : core::Fig2Tuples()) {
    if (!cluster.InsertTupleSync(0, tuple).ok()) return;
  }
  cluster.scheduler().RunUntilIdle();

  bench::Table table({"peer", "path", "index", "triple"});
  size_t total = 0;
  for (net::PeerId id = 0; id < 8; ++id) {
    auto* peer = cluster.overlay().peer(id);
    for (const auto& entry : peer->store().GetAllLive()) {
      auto t = triple::DecodeEntryTriple(entry.id);
      table.AddRow({std::to_string(id), peer->path().ToString(),
                    KindOf(entry.id),
                    t.ok() ? t->ToString() : "<undecodable>"});
      ++total;
    }
  }
  table.Print();
  std::printf("total entries: %zu (expected 18 = 2 tuples x 3 attrs x 3 "
              "indexes)\n",
              total);

  // Origin-data reproduction via each index ("efficient reproduction of
  // origin data ... is ensured in each situation", §2).
  auto by_oid = cluster.QuerySync(5, "SELECT ?p,?v WHERE { ('a12',?p,?v) }");
  auto by_av =
      cluster.QuerySync(6, "SELECT ?o WHERE { (?o,'year',2005) }");
  auto by_v = cluster.QuerySync(
      7, "SELECT ?o,?p WHERE { (?o,?p,'ICDE 2005') }");
  std::printf("reproduction: OID index -> %zu triples of a12; A#v index -> "
              "%zu tuple with year=2005; v index -> %zu match for value "
              "'ICDE 2005'\n",
              by_oid.ok() ? by_oid->rows.size() : 0,
              by_av.ok() ? by_av->rows.size() : 0,
              by_v.ok() ? by_v->rows.size() : 0);
}

// Micro kernel: the wall-clock cost of inserting one 3-attribute tuple
// (9 routed index entries) into the 8-peer network.
void BM_Fig2TupleInsert(benchmark::State& state) {
  core::ClusterOptions options;
  options.peers = 8;
  options.seed = 59;
  options.node.qgram_index = false;
  core::Cluster cluster(options);
  auto tuples = core::Fig2Tuples();
  int i = 0;
  for (auto _ : state) {
    triple::Tuple t = tuples[static_cast<size_t>(i) % tuples.size()];
    t.oid += "-" + std::to_string(i++);
    benchmark::DoNotOptimize(cluster.InsertTupleSync(0, t));
  }
}
BENCHMARK(BM_Fig2TupleInsert);

}  // namespace

int main(int argc, char** argv) {
  PrintPlacement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
