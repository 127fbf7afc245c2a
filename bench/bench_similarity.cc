// Experiment C5 (paper §2, [Karnstedt NetDB'06]): "a q-gram index in order
// to be able to process string similarity efficiently".
//
// Similarity selections edist(value, target) <= k: the q-gram access path
// (targeted posting lookups + local verification) vs the naive baseline
// (scan the whole attribute partition, verify at the initiator).
//
// Two regimes:
//  (1) balanced trie — order-preserving hashing packs the attribute
//      partition onto few peers, so the naive scan is message-cheap; the
//      q-gram path still wins on *data moved* (it fetches candidate
//      postings instead of the partition).
//  (2) adaptive (data-driven) trie — the dense partition is split across
//      many peers, the paper's target regime: the naive scan must now
//      visit the whole partition span while q-gram lookups stay targeted.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

namespace {

// Diverse series names: word-word combinations; typo'd variants included.
// (No shared suffix — shared suffixes make every posting list degenerate.)
std::string SeriesName(size_t n, Rng* rng, double typo_probability) {
  static const char* kWords[] = {
      "icde",     "vldb",    "sigmod",  "edbt",     "cidr",    "netdb",
      "adaptive", "skyline", "overlay", "triple",   "gossip",  "routing",
      "storage",  "query",   "ranking", "mapping",  "peer",    "grid",
      "stream",   "decent",  "vertical", "universe", "relation", "webdb",
      "damp",     "flux",    "orbit",   "quartz",   "zephyr",  "lumen",
      "cobalt",   "harbor",  "meadow",  "pixel",    "quill",   "raven",
      "summit",   "tundra",  "velvet",  "willow"};
  std::string name = std::string(kWords[n % std::size(kWords)]) + "-" +
                     kWords[(n / std::size(kWords)) % std::size(kWords)];
  if (rng->NextBernoulli(typo_probability)) {
    name = core::InjectTypo(name, rng);
  }
  return name;
}

std::unique_ptr<core::Cluster> BuildCluster(size_t names, bool balanced) {
  core::ClusterOptions options;
  options.peers = 64;
  options.seed = 21;
  options.balanced_construction = balanced;
  if (!balanced) {
    options.peer.split_threshold = 256;
  }
  auto cluster = std::make_unique<core::Cluster>(options);

  Rng rng(31);
  for (size_t n = 0; n < names; ++n) {
    triple::Tuple t;
    t.oid = "c" + std::to_string(n);
    t.attributes["series"] =
        triple::Value::String(SeriesName(n, &rng, 0.3));
    t.attributes["year"] =
        triple::Value::Int(2000 + static_cast<int64_t>(n % 7));
    // In the adaptive regime all data enters through the first node (the
    // network then self-organizes around it).
    auto via = balanced ? static_cast<net::PeerId>(n % cluster->size())
                        : net::PeerId{0};
    if (!cluster->InsertTupleSync(via, t).ok()) return cluster;
  }
  cluster->scheduler().RunUntilIdle();
  if (!balanced) {
    cluster->overlay().RunExchangeRounds(20);
  }
  cluster->RefreshStats();
  return cluster;
}

void RunRegime(const char* regime, bool balanced) {
  auto cluster = BuildCluster(2000, balanced);
  std::printf("[%s] trie depth %zu, storage gini %.2f\n", regime,
              cluster->overlay().MaxPathDepth(),
              cluster->overlay().StorageDistribution().Gini());

  bench::Table table({"k", "path", "msgs", "KB moved", "latency",
                      "results"});
  for (size_t k : {1, 2}) {
    std::string query =
        "SELECT ?c,?s WHERE { (?c,'series',?s) "
        "FILTER edist(?s,'skyline-routing') <= " +
        std::to_string(k) + " }";
    size_t qgram_rows = 0, naive_rows = 0;
    for (auto path : {plan::AccessPath::kSimilarityQGram,
                      plan::AccessPath::kSimilarityNaive}) {
      plan::PlannerOptions options;
      options.force_similarity_path = path;
      cluster->SetPlannerOptions(options);
      auto measured = cluster->QueryMeasured(7, query);
      if (!measured.ok()) {
        std::printf("  %s failed: %s\n",
                    std::string(plan::AccessPathName(path)).c_str(),
                    measured.status().ToString().c_str());
        continue;
      }
      if (path == plan::AccessPath::kSimilarityQGram) {
        qgram_rows = measured->result.rows.size();
      } else {
        naive_rows = measured->result.rows.size();
      }
      table.AddRow(
          {std::to_string(k),
           path == plan::AccessPath::kSimilarityQGram ? "q-gram" : "naive",
           bench::FmtInt(measured->traffic.messages_sent),
           bench::Fmt("%.1f",
                      static_cast<double>(measured->traffic.bytes_sent) /
                          1024.0),
           bench::Fmt("%.0f ms",
                      static_cast<double>(measured->virtual_latency_us) /
                          1000.0),
           std::to_string(measured->result.rows.size())});
    }
    if (qgram_rows != naive_rows) {
      std::printf("!! RESULT MISMATCH at k=%zu: qgram=%zu naive=%zu\n", k,
                  qgram_rows, naive_rows);
    }
  }
  table.Print();
}

void PrintSimilarity() {
  bench::Banner(
      "C5 / similarity: q-gram index vs naive scan",
      "edist(series, target) <= k on 2000 diverse strings, 64 peers; "
      "identical results required, costs compared per regime.");
  RunRegime("balanced trie", /*balanced=*/true);
  RunRegime("adaptive trie (data-driven splits)", /*balanced=*/false);
  std::printf(
      "expected: q-gram moves a fraction of the naive bytes in both "
      "regimes; in the adaptive regime the naive scan also pays a long "
      "partition walk (messages), widening the gap.\n");
}

void BM_SimilarityQGram(benchmark::State& state) {
  auto cluster = BuildCluster(500, /*balanced=*/true);
  plan::PlannerOptions options;
  options.force_similarity_path = plan::AccessPath::kSimilarityQGram;
  cluster->SetPlannerOptions(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster->QuerySync(
        3,
        "SELECT ?c WHERE { (?c,'series',?s) "
        "FILTER edist(?s,'skyline-routing') <= 2 }"));
  }
}
BENCHMARK(BM_SimilarityQGram)->Unit(benchmark::kMillisecond);

void BM_SimilarityNaive(benchmark::State& state) {
  auto cluster = BuildCluster(500, /*balanced=*/true);
  plan::PlannerOptions options;
  options.force_similarity_path = plan::AccessPath::kSimilarityNaive;
  cluster->SetPlannerOptions(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster->QuerySync(
        3,
        "SELECT ?c WHERE { (?c,'series',?s) "
        "FILTER edist(?s,'skyline-routing') <= 2 }"));
  }
}
BENCHMARK(BM_SimilarityNaive)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSimilarity();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
