// Experiment C9 (paper §1/§2): ingestion cost of the universal storage —
// every triple becomes 3 index entries (plus optional q-gram postings), so
// inserting a tuple with a attributes costs ~3a routed inserts.
//
// Reported: messages and bytes per tuple, the 3x index amplification, the
// q-gram indexing overhead, and host-side throughput (tuples/s of the
// whole simulated pipeline).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

namespace {

void PrintInsertCosts() {
  bench::Banner(
      "C9 / insert cost & index amplification",
      "Messages/bytes per inserted tuple across network sizes, with and "
      "without the q-gram index (tuples have ~5 attributes).");
  bench::Table table({"peers", "qgram", "tuples", "msgs/tuple",
                      "KB/tuple", "entries stored", "amplification"});
  for (size_t peers : {16, 64, 256}) {
    for (bool qgram : {false, true}) {
      core::ClusterOptions options;
      options.peers = peers;
      options.seed = 1;
      options.node.qgram_index = qgram;
      core::Cluster cluster(options);

      core::BibliographyOptions data;
      data.authors = 40;
      data.publications_per_author = 2;
      data.seed = 5;
      auto bib = core::GenerateBibliography(data);
      auto tuples = bib.AllTuples();

      auto before = cluster.overlay().transport().stats();
      for (size_t i = 0; i < tuples.size(); ++i) {
        auto via = static_cast<net::PeerId>(i % cluster.size());
        if (!cluster.InsertTupleSync(via, tuples[i]).ok()) return;
      }
      cluster.scheduler().RunUntilIdle();
      auto traffic = cluster.overlay().transport().stats().Since(before);

      size_t stored = 0;
      for (size_t i = 0; i < peers; ++i) {
        stored += cluster.overlay()
                      .peer(static_cast<net::PeerId>(i))
                      ->store()
                      .live_size();
      }
      const double n = static_cast<double>(tuples.size());
      table.AddRow(
          {std::to_string(peers), qgram ? "on" : "off",
           std::to_string(tuples.size()),
           bench::Fmt("%.1f", static_cast<double>(traffic.messages_sent) / n),
           bench::Fmt("%.1f",
                      static_cast<double>(traffic.bytes_sent) / n / 1024.0),
           std::to_string(stored),
           bench::Fmt("%.1fx", static_cast<double>(stored) /
                                   static_cast<double>(bib.TripleCount()))});
    }
  }
  table.Print();
  std::printf("expected: amplification ~3x without q-grams (the paper's "
              "three indexes), higher with postings; msgs/tuple grows "
              "logarithmically with N.\n");
}

void PrintBulkIngest() {
  bench::Banner(
      "C9b / bulk vs per-tuple ingest",
      "Population through the routed BulkInsert pipeline "
      "(Cluster::BulkLoadTuplesSync — entries grouped per hop, owners "
      "ingest via LocalStore::BulkLoad) vs one routed insert per tuple.");
  bench::Table table({"peers", "tuples", "path", "wall s", "tuples/s",
                      "msgs/tuple", "speedup"});
  bench::GateJson gates;
  for (size_t peers : {64, 256}) {
    const auto tuples = core::GenerateContactTuples(2000, 31);
    double per_tuple_s = 0;
    for (bool bulk : {false, true}) {
      core::ClusterOptions options;
      options.peers = peers;
      options.seed = 17;
      options.node.qgram_index = false;
      core::Cluster cluster(options);

      auto before = cluster.overlay().transport().stats();
      const auto t0 = std::chrono::steady_clock::now();
      if (bulk) {
        // One batch per 256 tuples: the anti-entropy / ingest shape.
        for (size_t i = 0; i < tuples.size(); i += 256) {
          std::vector<triple::Tuple> batch(
              tuples.begin() + static_cast<ptrdiff_t>(i),
              tuples.begin() +
                  static_cast<ptrdiff_t>(std::min(tuples.size(), i + 256)));
          if (!cluster
                   .BulkLoadTuplesSync(
                       static_cast<net::PeerId>(i % cluster.size()), batch)
                   .ok()) {
            return;
          }
        }
      } else {
        for (size_t i = 0; i < tuples.size(); ++i) {
          auto via = static_cast<net::PeerId>(i % cluster.size());
          if (!cluster.InsertTupleSync(via, tuples[i]).ok()) return;
        }
      }
      cluster.scheduler().RunUntilIdle();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      auto traffic = cluster.overlay().transport().stats().Since(before);
      const double n = static_cast<double>(tuples.size());
      double speedup = 0;
      if (bulk) {
        speedup = per_tuple_s / wall;
        gates.Add("bulk_tuple_speedup_" + std::to_string(peers) + "p",
                  speedup);
      } else {
        per_tuple_s = wall;
      }
      table.AddRow(
          {std::to_string(peers), std::to_string(tuples.size()),
           bulk ? "bulk" : "per-tuple", bench::Fmt("%.2f", wall),
           bench::Fmt("%.0f", n / wall),
           bench::Fmt("%.1f", static_cast<double>(traffic.messages_sent) / n),
           bulk ? bench::Fmt("%.1fx", speedup) : ""});
    }
  }
  table.Print();
  gates.WriteTo("BENCH_insert_throughput_gates.json");
  std::printf("expected: bulk population faster and far fewer messages "
              "per tuple (entries share routed walks instead of one "
              "request per index entry).\n");
}

void BM_InsertTuple(benchmark::State& state) {
  const bool qgram = state.range(0) != 0;
  core::ClusterOptions options;
  options.peers = 64;
  options.seed = 2;
  options.node.qgram_index = qgram;
  core::Cluster cluster(options);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    triple::Tuple t;
    t.oid = "bench-" + std::to_string(i++);
    t.attributes["name"] = triple::Value::String(
        std::string(1, static_cast<char>('a' + i % 26)) + "-name-" +
        std::to_string(i));
    t.attributes["age"] =
        triple::Value::Int(static_cast<int64_t>(rng.NextBounded(60)));
    benchmark::DoNotOptimize(cluster.InsertTupleSync(
        static_cast<net::PeerId>(i % cluster.size()), t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertTuple)->Arg(0)->Arg(1);

void BM_BulkLoadTuples(benchmark::State& state) {
  core::ClusterOptions options;
  options.peers = 64;
  options.seed = 2;
  options.node.qgram_index = false;
  core::Cluster cluster(options);
  const auto tuples = core::GenerateContactTuples(256, 5);
  uint64_t round = 0;
  for (auto _ : state) {
    // Same tuple identities re-bulk-loaded each round: versions bump, so
    // every round exercises the full pipeline (routing + BulkLoad).
    benchmark::DoNotOptimize(cluster.BulkLoadTuplesSync(
        static_cast<net::PeerId>(round++ % cluster.size()), tuples));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_BulkLoadTuples);

void BM_TripleDecompose(benchmark::State& state) {
  core::BibliographyOptions data;
  data.authors = 100;
  auto bib = core::GenerateBibliography(data);
  auto tuples = bib.AllTuples();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        triple::Decompose(tuples[i++ % tuples.size()]));
  }
}
BENCHMARK(BM_TripleDecompose);

}  // namespace

int main(int argc, char** argv) {
  PrintInsertCosts();
  PrintBulkIngest();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
