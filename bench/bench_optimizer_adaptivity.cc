// Experiment C7 (paper §2/§4): "we can determine worst-case guarantees and
// predict exact costs ... resulting in an adaptive query processing
// approach"; the demo "execute[s] identical queries sequentially while
// influencing the integrated optimizer ... which will result in different
// performance results".
//
// Part 1 — strategy ablation: the same join query under forced Probe /
// Migrate / LocalHash and under the adaptive cost-based choice, at small
// and large left cardinalities. Expected shape: no forced strategy wins
// everywhere; the adaptive choice tracks the best forced one.
//
// Part 2 — prediction quality: cost-model message predictions vs measured
// messages for lookups and range scans.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cluster.h"

using namespace unistore;

namespace {

std::unique_ptr<core::Cluster> BuildCluster(size_t groups,
                                            size_t people_per_group) {
  core::ClusterOptions options;
  options.peers = 32;
  options.seed = 3;
  options.node.qgram_index = false;
  auto cluster = std::make_unique<core::Cluster>(options);
  size_t i = 0;
  for (size_t g = 0; g < groups; ++g) {
    for (size_t p = 0; p < people_per_group; ++p) {
      triple::Tuple t;
      t.oid = "m" + std::to_string(g) + "-" + std::to_string(p);
      t.attributes["group"] =
          triple::Value::Int(static_cast<int64_t>(g));
      t.attributes["score"] =
          triple::Value::Int(static_cast<int64_t>((g * 7 + p) % 100));
      auto via = static_cast<net::PeerId>(i++ % cluster->size());
      if (!cluster->InsertTupleSync(via, t).ok()) return cluster;
    }
  }
  cluster->scheduler().RunUntilIdle();
  cluster->RefreshStats();
  return cluster;
}

void PrintStrategyAblation() {
  bench::Banner(
      "C7a / identical query, different strategies",
      "Join (?a,'group',g) x (?a,'score',?s): forced strategies vs the "
      "adaptive cost-based choice, for small and large left sides.");
  auto cluster = BuildCluster(40, 12);  // 480 tuples.

  struct Case {
    const char* label;
    std::string query;
  };
  // group=3 selects 12 left bindings; group range selects ~240.
  std::vector<Case> cases = {
      {"small left (12)",
       "SELECT ?a,?s WHERE { (?a,'group',3) (?a,'score',?s) }"},
      {"large left (~240)",
       "SELECT ?a,?s WHERE { (?a,'group',?g) (?a,'score',?s) "
       "FILTER ?g < 20 }"},
  };

  bench::Table table({"case", "strategy", "msgs", "latency", "rows"});
  for (const auto& c : cases) {
    struct Outcome {
      std::string name;
      uint64_t msgs;
      double latency;
    };
    std::vector<Outcome> outcomes;
    auto run = [&](const std::string& name,
                   const plan::PlannerOptions& options) {
      cluster->SetPlannerOptions(options);
      auto measured = cluster->QueryMeasured(9, c.query);
      if (!measured.ok()) return;
      outcomes.push_back(
          {name, measured->traffic.messages_sent,
           static_cast<double>(measured->virtual_latency_us) / 1000.0});
      table.AddRow({c.label, name,
                    bench::FmtInt(measured->traffic.messages_sent),
                    bench::Fmt("%.0f ms",
                               static_cast<double>(
                                   measured->virtual_latency_us) /
                                   1000.0),
                    std::to_string(measured->result.rows.size())});
    };
    for (auto strategy :
         {plan::JoinStrategy::kProbe, plan::JoinStrategy::kMigrate,
          plan::JoinStrategy::kLocalHash}) {
      plan::PlannerOptions options;
      options.force_join_strategy = strategy;
      run(std::string(plan::JoinStrategyName(strategy)), options);
    }
    run("adaptive", plan::PlannerOptions{});

    // Note how close adaptive came to the best forced strategy.
    if (outcomes.size() == 4) {
      double best = outcomes[0].latency;
      for (const auto& o : outcomes) {
        if (o.name != "adaptive") best = std::min(best, o.latency);
      }
      std::printf("  %s: adaptive %.0f ms vs best forced %.0f ms\n",
                  c.label, outcomes[3].latency, best);
    }
  }
  table.Print();
  std::printf("expected: Probe wins the small case, Migrate/LocalHash the "
              "large one; adaptive tracks the winner without being told.\n");
}

void PrintPredictionQuality() {
  bench::Banner("C7b / cost prediction quality",
                "Cost-model message predictions vs measurement.");
  auto cluster = BuildCluster(20, 10);
  const auto& catalog = cluster->node(0).service().catalog();
  cost::CostModel model(&catalog);

  bench::Table table({"operation", "predicted msgs", "measured msgs",
                      "error"});
  // Lookup.
  {
    auto before = cluster->overlay().transport().stats();
    (void)cluster->QuerySync(0,
                             "SELECT ?s WHERE { ('m3-1','score',?s) }");
    auto traffic = cluster->overlay().transport().stats().Since(before);
    double predicted = model.Lookup().messages;
    double measured = static_cast<double>(traffic.messages_sent);
    table.AddRow({"oid lookup", bench::Fmt("%.1f", predicted),
                  bench::Fmt("%.0f", measured),
                  bench::Fmt("%.0f%%",
                             100.0 * std::abs(predicted - measured) /
                                 std::max(1.0, measured))});
  }
  // Attribute scan (shower).
  {
    plan::PlannerOptions options;
    options.force_range_strategy = triple::RangeStrategy::kShower;
    cluster->SetPlannerOptions(options);
    auto before = cluster->overlay().transport().stats();
    (void)cluster->QuerySync(0, "SELECT ?a WHERE { (?a,'score',?s) }");
    auto traffic = cluster->overlay().transport().stats().Since(before);
    double fraction = catalog.EstimateAttributeSpread(
        "score", catalog.TotalTriples());
    double predicted = model.RangeScanShower(fraction, 200).messages;
    double measured = static_cast<double>(traffic.messages_sent);
    table.AddRow({"attr scan (shower)", bench::Fmt("%.1f", predicted),
                  bench::Fmt("%.0f", measured),
                  bench::Fmt("%.0f%%",
                             100.0 * std::abs(predicted - measured) /
                                 std::max(1.0, measured))});
  }
  table.Print();
  std::printf("expected: predictions within the right order of magnitude "
              "(the model drives *relative* strategy choices).\n");
}

void BM_PlanOnly(benchmark::State& state) {
  auto cluster = BuildCluster(10, 5);
  const std::string query =
      "SELECT ?a,?s WHERE { (?a,'group',3) (?a,'score',?s) }";
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster->node(0).PlanOnly(query));
  }
}
BENCHMARK(BM_PlanOnly);

}  // namespace

int main(int argc, char** argv) {
  PrintStrategyAblation();
  PrintPredictionQuality();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
