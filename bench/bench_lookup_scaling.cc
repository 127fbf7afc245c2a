// Experiment C1: "structured P2P overlays ... offer logarithmic search
// complexity in the number of nodes" (paper §2).
//
// Sweep network sizes, run exact-key lookups from random peers, report
// average/max hops and messages per lookup. Expect avg hops ~ depth/2 and
// max hops <= depth + 1, i.e. logarithmic growth.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "common/histogram.h"
#include "pgrid/overlay.h"

using namespace unistore;

namespace {

pgrid::Entry MakeEntry(uint64_t i) {
  pgrid::Entry e;
  // First byte spans the byte range so keys spread over all subtrees.
  std::string value(1, static_cast<char>((i * 37) % 251 + 1));
  value += "-value-" + std::to_string(i);
  e.key = pgrid::OpHash(value);
  e.id = "id" + std::to_string(i);
  return e;
}

void PrintScaling() {
  bench::Banner("C1 / lookup scaling",
                "Greedy prefix routing: hops grow logarithmically with the "
                "network size (expect avg ~ log2(N)/2, max <= depth+1).");
  bench::Table table({"peers", "depth", "avg hops", "p99 hops", "max hops",
                      "msgs/lookup", "found"});
  const int kEntries = 200;
  const int kLookups = 300;
  for (size_t n : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
    pgrid::OverlayOptions options;
    options.seed = 1000 + n;
    pgrid::Overlay overlay(options);
    overlay.AddPeers(n);
    overlay.BuildBalanced();
    std::vector<pgrid::Entry> entries;
    for (int i = 0; i < kEntries; ++i) {
      entries.push_back(MakeEntry(static_cast<uint64_t>(i)));
      overlay.InsertDirect(entries.back());
    }

    Rng rng(n);
    SampleStats hops;
    uint64_t messages = 0;
    int found = 0;
    for (int i = 0; i < kLookups; ++i) {
      const auto& e = entries[rng.NextBounded(entries.size())];
      auto from = static_cast<net::PeerId>(rng.NextBounded(n));
      auto before = overlay.transport().stats();
      auto result = overlay.LookupSync(from, e.key);
      messages += overlay.transport().stats().Since(before).messages_sent;
      if (result.ok() && !result->entries.empty()) {
        ++found;
        hops.Add(result->hops);
      }
    }
    table.AddRow({std::to_string(n), std::to_string(overlay.MaxPathDepth()),
                  bench::Fmt("%.2f", hops.mean()),
                  bench::Fmt("%.0f", hops.Percentile(99)),
                  bench::Fmt("%.0f", hops.max()),
                  bench::Fmt("%.2f", static_cast<double>(messages) /
                                         kLookups),
                  std::to_string(found) + "/" + std::to_string(kLookups)});
  }
  table.Print();
  std::printf("reference: log2(N)/2 = 2.0 at N=16, 5.5 at N=2048\n");
}

void BM_LookupSync(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  pgrid::OverlayOptions options;
  options.seed = 5 + n;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(n);
  overlay.BuildBalanced();
  std::vector<pgrid::Entry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back(MakeEntry(static_cast<uint64_t>(i)));
    overlay.InsertDirect(entries.back());
  }
  Rng rng(n);
  for (auto _ : state) {
    const auto& e = entries[rng.NextBounded(entries.size())];
    auto from = static_cast<net::PeerId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(overlay.LookupSync(from, e.key));
  }
}
BENCHMARK(BM_LookupSync)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  PrintScaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
