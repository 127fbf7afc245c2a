// Experiment C4 (paper §2): "P-Grid supports efficient substring search
// and range queries through its basic infrastructure" — with *several*
// physical implementations: the sequential (min-first) walk and the
// parallel shower multicast.
//
// Sweep range selectivity on a 256-peer network and compare the two
// strategies. Expected shape: the shower's latency stays roughly flat
// (logarithmic critical path), the sequential walk's latency grows
// linearly with the covered peers; messages are similar, so the
// cost-based choice flips from sequential (selective ranges, fewer
// messages under light load) to shower (wide ranges) — the crossover the
// cost model must capture.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "pgrid/overlay.h"

using namespace unistore;

namespace {

// Values whose first byte is uniform over the byte range: the key space
// is evenly covered, so a value interval [lo, hi) covers ~ (hi-lo)/256 of
// the peers.
std::string ValueFor(size_t i, size_t total) {
  unsigned char first = static_cast<unsigned char>((i * 256) / total);
  return std::string(1, static_cast<char>(first == 0 ? 1 : first)) +
         "-v" + std::to_string(i);
}

void PrintRangeStrategies() {
  bench::Banner(
      "C4 / range strategies",
      "Sequential walk vs parallel shower across range selectivities "
      "(256 peers, 4000 entries, 1ms hop latency).");
  const size_t kPeers = 256;
  const size_t kEntries = 4000;
  pgrid::OverlayOptions options;
  options.seed = 4;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(kPeers);
  overlay.BuildBalanced();
  for (size_t i = 0; i < kEntries; ++i) {
    pgrid::Entry e;
    std::string value = ValueFor(i, kEntries);
    e.key = pgrid::OpHash(value);
    e.id = "id" + std::to_string(i);
    overlay.InsertDirect(e);
  }

  bench::Table table({"selectivity", "peers hit", "seq msgs", "seq latency",
                      "shower msgs", "shower latency", "winner(latency)",
                      "entries"});
  for (double fraction : {0.004, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    // Byte interval of that width starting at byte 64.
    unsigned char lo_byte = 64;
    double hi_raw = 64 + 255 * fraction;
    unsigned char hi_byte =
        hi_raw >= 255 ? 255 : static_cast<unsigned char>(hi_raw);
    if (fraction >= 1.0) {
      lo_byte = 1;
      hi_byte = 255;
    }
    pgrid::KeyRange range{
        pgrid::OpHash(std::string(1, static_cast<char>(lo_byte))),
        pgrid::OpHashUpper(std::string(1, static_cast<char>(hi_byte)))};

    auto before_seq = overlay.transport().stats();
    sim::SimTime t0 = overlay.scheduler().Now();
    auto seq = overlay.RangeSeqSync(0, range);
    sim::SimTime seq_latency = overlay.scheduler().Now() - t0;
    auto seq_traffic = overlay.transport().stats().Since(before_seq);

    auto before_shower = overlay.transport().stats();
    sim::SimTime t1 = overlay.scheduler().Now();
    auto shower = overlay.RangeShowerSync(0, range);
    sim::SimTime shower_latency = overlay.scheduler().Now() - t1;
    auto shower_traffic = overlay.transport().stats().Since(before_shower);

    if (!seq.ok() || !shower.ok()) continue;
    table.AddRow(
        {bench::Fmt("%.3f", fraction),
         std::to_string(shower->peers_contacted),
         bench::FmtInt(seq_traffic.messages_sent),
         bench::Fmt("%.0f ms", static_cast<double>(seq_latency) / 1000),
         bench::FmtInt(shower_traffic.messages_sent),
         bench::Fmt("%.0f ms", static_cast<double>(shower_latency) / 1000),
         seq_latency <= shower_latency ? "sequential" : "shower",
         std::to_string(seq->entries.size())});
  }
  table.Print();
  std::printf("expected: sequential latency grows linearly with covered "
              "peers; shower stays near-flat -> crossover at small "
              "selectivities.\n");
}

void BM_RangeSeq(benchmark::State& state) {
  pgrid::OverlayOptions options;
  options.seed = 6;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(64);
  overlay.BuildBalanced();
  for (size_t i = 0; i < 1000; ++i) {
    pgrid::Entry e;
    std::string value = ValueFor(i, 1000);
    e.key = pgrid::OpHash(value);
    e.id = "id" + std::to_string(i);
    overlay.InsertDirect(e);
  }
  pgrid::KeyRange range{pgrid::OpHash("\x20"), pgrid::OpHashUpper("\x60")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.RangeSeqSync(0, range));
  }
}
BENCHMARK(BM_RangeSeq);

void BM_RangeShower(benchmark::State& state) {
  pgrid::OverlayOptions options;
  options.seed = 6;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(64);
  overlay.BuildBalanced();
  for (size_t i = 0; i < 1000; ++i) {
    pgrid::Entry e;
    std::string value = ValueFor(i, 1000);
    e.key = pgrid::OpHash(value);
    e.id = "id" + std::to_string(i);
    overlay.InsertDirect(e);
  }
  pgrid::KeyRange range{pgrid::OpHash("\x20"), pgrid::OpHashUpper("\x60")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.RangeShowerSync(0, range));
  }
}
BENCHMARK(BM_RangeShower);

}  // namespace

int main(int argc, char** argv) {
  PrintRangeStrategies();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
