// Experiment C3 (paper §2): "P-Grid includes a mature load-balancing
// technique able to deal with nearly arbitrary data skews."
//
// Order-preserving hashing concentrates skewed data; a statically
// balanced trie therefore develops hotspots, while the decentralized
// exchange protocol (split-on-overflow + migrate-split balancing) adapts
// peer paths to the data distribution. We sweep Zipf skews and compare
// storage distribution metrics plus virtual lookup latency (p50/p99 of
// scheduler-clock deltas). Expected shape: adaptive Gini well below
// static Gini at high skew, gap widening with skew, and no data loss.
//
// Emits BENCH_load_balance_gates.json; exits non-zero if a gate fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "pgrid/overlay.h"

using namespace unistore;

namespace {

bench::GateJson g_gates;

std::vector<std::string> SkewedValues(size_t count, double skew,
                                      uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(26, skew);
  std::vector<std::string> values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    char c = static_cast<char>('a' + zipf.Sample(&rng));
    values.push_back(std::string(1, c) + "-key-" + std::to_string(i));
  }
  return values;
}

pgrid::Entry MakeEntry(const std::string& value, size_t i) {
  pgrid::Entry e;
  e.key = pgrid::OpHash(value);
  e.id = "id" + std::to_string(i);
  return e;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

/// Virtual lookup latency (scheduler-clock delta per LookupSync) for a
/// sample of the inserted keys, issued from peer 0.
std::vector<double> MeasureLookupLatency(pgrid::Overlay& overlay,
                                         const std::vector<std::string>& values,
                                         size_t sample_count, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> latencies;
  latencies.reserve(sample_count);
  for (size_t i = 0; i < sample_count; ++i) {
    const std::string& value = values[rng.NextBounded(values.size())];
    const sim::SimTime start = overlay.scheduler().Now();
    auto result = overlay.LookupSync(0, pgrid::OpHash(value));
    latencies.push_back(
        static_cast<double>(overlay.scheduler().Now() - start));
    benchmark::DoNotOptimize(result);
  }
  return latencies;
}

void PrintLoadBalance(int* rc) {
  bench::Banner(
      "C3 / load balancing under skew",
      "Static balanced trie vs adaptive exchange construction: storage "
      "Gini, max/mean load spread, and virtual lookup p50/p99 for "
      "Zipf-skewed keys.");
  const size_t kPeers = 48;
  const size_t kKeys = 6000;
  const size_t kLookups = 400;
  bench::Table table({"zipf s", "static Gini", "static max/mean",
                      "static p50/p99 us", "adaptive Gini",
                      "adaptive max/mean", "adaptive p50/p99 us",
                      "max depth", "stored"});
  bool gini_ok = true;
  bool no_loss_ok = true;
  double high_skew_static_spread = 0;
  double high_skew_adaptive_spread = 0;
  for (double skew : {0.0, 0.5, 1.0, 1.2}) {
    auto values = SkewedValues(kKeys, skew, 42);

    // Static balanced trie.
    pgrid::OverlayOptions static_options;
    static_options.seed = 900;
    pgrid::Overlay balanced(static_options);
    balanced.AddPeers(kPeers);
    balanced.BuildBalanced();
    for (size_t i = 0; i < values.size(); ++i) {
      balanced.InsertDirect(MakeEntry(values[i], i));
    }
    auto static_dist = balanced.StorageDistribution();
    auto static_lat = MeasureLookupLatency(balanced, values, kLookups, 7);

    // Adaptive decentralized construction (data-driven splits).
    pgrid::OverlayOptions adaptive_options;
    adaptive_options.seed = 901;
    adaptive_options.peer.split_threshold = 2 * kKeys / kPeers;
    pgrid::Overlay adaptive(adaptive_options);
    adaptive.AddPeers(kPeers);
    for (size_t i = 0; i < values.size(); ++i) {
      adaptive.peer(0)->ApplyLocal(MakeEntry(values[i], i));
    }
    adaptive.RunExchangeRounds(25);
    auto adaptive_dist = adaptive.StorageDistribution();
    auto adaptive_lat = MeasureLookupLatency(adaptive, values, kLookups, 7);

    const double static_spread =
        static_dist.max() / std::max(1.0, static_dist.mean());
    const double adaptive_spread =
        adaptive_dist.max() / std::max(1.0, adaptive_dist.mean());
    table.AddRow(
        {bench::Fmt("%.1f", skew),
         bench::Fmt("%.3f", static_dist.Gini()),
         bench::Fmt("%.1f", static_spread),
         bench::Fmt("%.0f", Percentile(static_lat, 0.5)) + "/" +
             bench::Fmt("%.0f", Percentile(static_lat, 0.99)),
         bench::Fmt("%.3f", adaptive_dist.Gini()),
         bench::Fmt("%.1f", adaptive_spread),
         bench::Fmt("%.0f", Percentile(adaptive_lat, 0.5)) + "/" +
             bench::Fmt("%.0f", Percentile(adaptive_lat, 0.99)),
         std::to_string(adaptive.MaxPathDepth()),
         bench::Fmt("%.0f", adaptive_dist.sum())});

    // Gates: the adaptive overlay must beat the static one once skew is
    // real (>= 1.0); at low skew both are balanced and order can flip.
    if (skew >= 1.0 && adaptive_dist.Gini() >= static_dist.Gini()) {
      gini_ok = false;
    }
    if (adaptive_dist.sum() < static_cast<double>(kKeys)) no_loss_ok = false;
    if (skew == 1.2) {
      high_skew_static_spread = static_spread;
      high_skew_adaptive_spread = adaptive_spread;
      g_gates.Add("static_gini_s1_2", static_dist.Gini());
      g_gates.Add("adaptive_gini_s1_2", adaptive_dist.Gini());
      g_gates.Add("static_lookup_p99_us", Percentile(static_lat, 0.99));
      g_gates.Add("adaptive_lookup_p99_us", Percentile(adaptive_lat, 0.99));
      g_gates.Add("adaptive_stored", adaptive_dist.sum());
    }
  }
  table.Print();
  std::printf("expected: adaptive Gini < static Gini at high skew; the "
              "static trie degrades with s while the adaptive one stays "
              "balanced. 'stored' must remain >= %zu — no data loss "
              "(replica groups formed during construction may add "
              "copies).\n",
              kKeys);

  g_gates.Add("static_max_mean_s1_2", high_skew_static_spread);
  g_gates.Add("adaptive_max_mean_s1_2", high_skew_adaptive_spread);
  g_gates.Add("adaptive_gini_below_static_ok", gini_ok ? 1 : 0);
  g_gates.Add("no_data_loss_ok", no_loss_ok ? 1 : 0);
  if (!gini_ok) {
    std::printf("FAIL: adaptive Gini not below static at high skew\n");
    *rc = 1;
  }
  if (!no_loss_ok) {
    std::printf("FAIL: adaptive overlay lost data\n");
    *rc = 1;
  }
}

void BM_ExchangeRound(benchmark::State& state) {
  pgrid::OverlayOptions options;
  options.seed = 11;
  options.peer.split_threshold = 100;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(32);
  auto values = SkewedValues(2000, 1.0, 13);
  for (size_t i = 0; i < values.size(); ++i) {
    overlay.peer(0)->ApplyLocal(MakeEntry(values[i], i));
  }
  for (auto _ : state) {
    overlay.RunExchangeRounds(1);
  }
}
BENCHMARK(BM_ExchangeRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  int rc = 0;
  PrintLoadBalance(&rc);
  g_gates.WriteTo("BENCH_load_balance_gates.json");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (rc == 0) std::printf("all load-balance gates passed\n");
  return rc;
}
