// Storage-engine microbenchmark: the zero-copy sorted-run LocalStore
// against the original nested-std::map engine (DESIGN.md § Local storage
// engine).
//
// Sweeps store sizes 1k-1M and measures the local read path in isolation
// (no network, no simulation): point lookups, range scans, prefix scans
// and full scans, reporting entries/sec plus heap allocations and bytes
// allocated per operation (a global operator new hook counts them). The
// visitor read path of the new engine must allocate nothing.
//
// Exit code encodes the PR's acceptance gate: scan results byte-identical
// between engines at every size, >= 3x range-scan entries/sec at 100k
// entries, and zero read-path allocations.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/alloc_hook.h"
#include "common/rng.h"
#include "pgrid/local_store.h"
#include "pgrid/ophash.h"

using namespace unistore;

namespace {

// The pre-rewrite engine, verbatim: nested map, copy-returning reads.
class MapStoreBaseline {
 public:
  bool Apply(const pgrid::Entry& entry) {
    auto& slot_map = entries_[entry.key];
    auto it = slot_map.find(entry.id);
    if (it == slot_map.end()) {
      slot_map.emplace(entry.id, entry);
      return true;
    }
    if (entry.version <= it->second.version) return false;
    it->second = entry;
    return true;
  }

  std::vector<pgrid::Entry> Get(const pgrid::Key& key) const {
    std::vector<pgrid::Entry> out;
    auto it = entries_.find(key);
    if (it == entries_.end()) return out;
    for (const auto& [id, e] : it->second) {
      if (!e.deleted) out.push_back(e);
    }
    return out;
  }

  std::vector<pgrid::Entry> GetRange(const pgrid::KeyRange& range) const {
    std::vector<pgrid::Entry> out;
    for (auto it = entries_.lower_bound(range.lo);
         it != entries_.end() && it->first.Compare(range.hi) <= 0; ++it) {
      for (const auto& [id, e] : it->second) {
        if (!e.deleted) out.push_back(e);
      }
    }
    return out;
  }

  std::vector<pgrid::Entry> GetByPrefix(const pgrid::Key& prefix) const {
    std::vector<pgrid::Entry> out;
    for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
      if (!prefix.IsPrefixOf(it->first)) break;
      for (const auto& [id, e] : it->second) {
        if (!e.deleted) out.push_back(e);
      }
    }
    return out;
  }

  std::vector<pgrid::Entry> GetAllLive() const {
    std::vector<pgrid::Entry> out;
    for (const auto& [key, slot_map] : entries_) {
      for (const auto& [id, e] : slot_map) {
        if (!e.deleted) out.push_back(e);
      }
    }
    return out;
  }

 private:
  std::map<pgrid::Key, std::map<std::string, pgrid::Entry>> entries_;
};

pgrid::Entry MakeEntry(uint64_t i) {
  pgrid::Entry e;
  std::string value = "k" + std::to_string(i * 2654435761u) + "-" +
                      std::to_string(i);
  e.key = pgrid::OpHash(value);
  e.id = "a#id" + std::to_string(i);
  e.version = 1 + (i % 3);
  return e;
}

// Order-sensitive FNV-1a over the visited entry stream (shared with
// bench_bulk_load): equal checksums + equal counts == byte-identical
// results between engines.
using Checksum = bench::StreamChecksum;

struct Metric {
  double seconds = 0;
  uint64_t entries = 0;
  uint64_t ops = 0;
  uint64_t alloc_calls = 0;
  uint64_t alloc_bytes = 0;
  Checksum sum;

  double EntriesPerSec() const {
    return seconds > 0 ? static_cast<double>(entries) / seconds : 0;
  }
  double AllocsPerOp() const {
    return ops ? static_cast<double>(alloc_calls) / static_cast<double>(ops)
               : 0;
  }
};

template <typename Fn>
void Timed(Metric* m, Fn&& fn) {
  const uint64_t calls0 =
      alloc_hook::Calls().load(std::memory_order_relaxed);
  const uint64_t bytes0 =
      alloc_hook::Bytes().load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  m->seconds += std::chrono::duration<double>(t1 - t0).count();
  m->alloc_calls +=
      alloc_hook::Calls().load(std::memory_order_relaxed) - calls0;
  m->alloc_bytes +=
      alloc_hook::Bytes().load(std::memory_order_relaxed) - bytes0;
}

struct Workload {
  std::vector<pgrid::Key> point_keys;
  std::vector<pgrid::KeyRange> ranges;
  std::vector<pgrid::Key> prefixes;
};

Workload MakeWorkload(const std::vector<pgrid::Entry>& entries,
                      uint64_t seed) {
  Workload w;
  Rng rng(seed);
  const size_t points = std::min<size_t>(entries.size(), 4000);
  for (size_t i = 0; i < points; ++i) {
    w.point_keys.push_back(
        entries[rng.NextBounded(entries.size())].key);
  }
  for (int i = 0; i < 48; ++i) {
    // ~1/16 of the key space per range: a random 4-bit prefix, padded.
    std::string p;
    for (int b = 0; b < 4; ++b) p += rng.NextBounded(2) ? '1' : '0';
    pgrid::Key prefix = pgrid::Key::FromBits(p);
    w.ranges.push_back({prefix.PadTo(pgrid::kKeyBits, false),
                        prefix.PadTo(pgrid::kKeyBits, true)});
    w.prefixes.push_back(prefix);
  }
  return w;
}

struct EngineResult {
  Metric point, range, prefix, scan_all;
  double build_seconds = 0;
};

EngineResult RunSorted(const std::vector<pgrid::Entry>& entries,
                       const Workload& w) {
  EngineResult r;
  pgrid::LocalStoreOptions options;
  // Bulk-load posture: big memtable, wide compaction fan-in (README knob
  // table). Steady-state read measurements run on the compacted store.
  options.memtable_flush_threshold = 4096;
  options.max_runs = 8;
  pgrid::LocalStore store(options);
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& e : entries) store.Apply(e);
    store.Compact();
    r.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // Verification pass (untimed): checksum the full visited stream so the
  // engines can be compared byte for byte.
  auto checksum = [](Metric* m) {
    return [m](const pgrid::EntryView& e) {
      m->sum.Add(e);
      return true;
    };
  };
  for (const auto& k : w.point_keys) store.ScanKey(k, checksum(&r.point));
  for (const auto& range : w.ranges) {
    store.ScanRange(range, checksum(&r.range));
  }
  for (const auto& p : w.prefixes) {
    store.ScanPrefix(p, checksum(&r.prefix));
  }
  for (int i = 0; i < 4; ++i) store.ScanAllLive(checksum(&r.scan_all));

  // Timed pass: the read path itself, with minimal per-entry consumption
  // (one field read) — what a streamed reply encoder pays per entry
  // before the actual encoding work.
  uint64_t sink = 0;
  auto touch = [&sink](Metric* m) {
    return [&sink, m](const pgrid::EntryView& e) {
      sink += e.version;
      ++m->entries;
      return true;
    };
  };
  Timed(&r.point, [&] {
    for (const auto& k : w.point_keys) {
      store.ScanKey(k, touch(&r.point));
      ++r.point.ops;
    }
  });
  Timed(&r.range, [&] {
    for (const auto& range : w.ranges) {
      store.ScanRange(range, touch(&r.range));
      ++r.range.ops;
    }
  });
  Timed(&r.prefix, [&] {
    for (const auto& p : w.prefixes) {
      store.ScanPrefix(p, touch(&r.prefix));
      ++r.prefix.ops;
    }
  });
  Timed(&r.scan_all, [&] {
    for (int i = 0; i < 4; ++i) {
      store.ScanAllLive(touch(&r.scan_all));
      ++r.scan_all.ops;
    }
  });
  benchmark::DoNotOptimize(sink);
  return r;
}

EngineResult RunBaseline(const std::vector<pgrid::Entry>& entries,
                         const Workload& w) {
  EngineResult r;
  MapStoreBaseline store;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& e : entries) store.Apply(e);
    r.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // Verification pass (untimed).
  auto checksum = [](Metric* m, const std::vector<pgrid::Entry>& got) {
    for (const auto& e : got) m->sum.Add(e);
  };
  for (const auto& k : w.point_keys) checksum(&r.point, store.Get(k));
  for (const auto& range : w.ranges) {
    checksum(&r.range, store.GetRange(range));
  }
  for (const auto& p : w.prefixes) {
    checksum(&r.prefix, store.GetByPrefix(p));
  }
  for (int i = 0; i < 4; ++i) checksum(&r.scan_all, store.GetAllLive());

  // Timed pass: materialize (what the old read path did), then the same
  // minimal per-entry consumption as the sorted-run engine.
  uint64_t sink = 0;
  auto touch = [&sink](Metric* m, const std::vector<pgrid::Entry>& got) {
    for (const auto& e : got) {
      sink += e.version;
      ++m->entries;
    }
  };
  Timed(&r.point, [&] {
    for (const auto& k : w.point_keys) {
      touch(&r.point, store.Get(k));
      ++r.point.ops;
    }
  });
  Timed(&r.range, [&] {
    for (const auto& range : w.ranges) {
      touch(&r.range, store.GetRange(range));
      ++r.range.ops;
    }
  });
  Timed(&r.prefix, [&] {
    for (const auto& p : w.prefixes) {
      touch(&r.prefix, store.GetByPrefix(p));
      ++r.prefix.ops;
    }
  });
  Timed(&r.scan_all, [&] {
    for (int i = 0; i < 4; ++i) {
      touch(&r.scan_all, store.GetAllLive());
      ++r.scan_all.ops;
    }
  });
  benchmark::DoNotOptimize(sink);
  return r;
}

bool g_identical = true;
bool g_zero_alloc = true;
double g_speedup_100k = 0;

void PrintScan() {
  bench::Banner(
      "S1 / local scan engines",
      "Sorted-run LocalStore with zero-copy visitor scans vs the nested "
      "std::map baseline: entries/sec up, read-path allocations to zero.");
  bench::Table table({"entries", "engine", "build s", "point op/s",
                      "range Me/s", "prefix Me/s", "scan-all Me/s",
                      "allocs/op", "MB alloc'd"});
  for (size_t n : {1000, 10000, 100000, 1000000}) {
    std::vector<pgrid::Entry> entries;
    entries.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      entries.push_back(MakeEntry(static_cast<uint64_t>(i)));
    }
    Workload w = MakeWorkload(entries, 9000 + n);
    EngineResult base = RunBaseline(entries, w);
    EngineResult sorted = RunSorted(entries, w);

    const bool identical = sorted.point.sum == base.point.sum &&
                           sorted.range.sum == base.range.sum &&
                           sorted.prefix.sum == base.prefix.sum &&
                           sorted.scan_all.sum == base.scan_all.sum;
    if (!identical) g_identical = false;
    const uint64_t read_allocs =
        sorted.point.alloc_calls + sorted.range.alloc_calls +
        sorted.prefix.alloc_calls + sorted.scan_all.alloc_calls;
    if (read_allocs != 0) g_zero_alloc = false;
    if (n == 100000) {
      g_speedup_100k =
          sorted.range.EntriesPerSec() / base.range.EntriesPerSec();
    }

    auto add_row = [&](const char* name, const EngineResult& r) {
      const uint64_t mb =
          (r.point.alloc_bytes + r.range.alloc_bytes +
           r.prefix.alloc_bytes + r.scan_all.alloc_bytes) >>
          20;
      const double ops =
          static_cast<double>(r.point.ops + r.range.ops + r.prefix.ops +
                              r.scan_all.ops);
      const double allocs = static_cast<double>(
          r.point.alloc_calls + r.range.alloc_calls + r.prefix.alloc_calls +
          r.scan_all.alloc_calls);
      table.AddRow(
          {std::to_string(n), name, bench::Fmt("%.2f", r.build_seconds),
           bench::Fmt("%.0f", static_cast<double>(r.point.ops) /
                                  (r.point.seconds > 0 ? r.point.seconds
                                                       : 1e-9)),
           bench::Fmt("%.1f", r.range.EntriesPerSec() / 1e6),
           bench::Fmt("%.1f", r.prefix.EntriesPerSec() / 1e6),
           bench::Fmt("%.1f", r.scan_all.EntriesPerSec() / 1e6),
           bench::Fmt("%.1f", ops > 0 ? allocs / ops : 0),
           std::to_string(mb)});
    };
    add_row("map", base);
    add_row("sorted-run", sorted);
    if (!identical) {
      std::printf("!! engines disagree at %zu entries\n", n);
    }
  }
  table.Print();
  std::printf(
      "range-scan speedup at 100k entries: %.2fx (gate: >= 3x), "
      "read-path allocations: %s, results identical: %s\n",
      g_speedup_100k, g_zero_alloc ? "zero" : "NON-ZERO",
      g_identical ? "yes" : "NO");

  bench::GateJson gates;
  gates.Add("range_scan_speedup_100k", g_speedup_100k);
  gates.Add("read_path_allocations", g_zero_alloc ? 0 : 1);
  gates.Add("results_identical", g_identical ? 1 : 0);
  gates.WriteTo("BENCH_local_scan_gates.json");
}

// --- google-benchmark micro kernels ----------------------------------------

constexpr size_t kBmEntries = 100000;

const std::vector<pgrid::Entry>& BmEntries() {
  static const std::vector<pgrid::Entry>* entries = [] {
    auto* v = new std::vector<pgrid::Entry>();
    v->reserve(kBmEntries);
    for (size_t i = 0; i < kBmEntries; ++i) {
      v->push_back(MakeEntry(static_cast<uint64_t>(i)));
    }
    return v;
  }();
  return *entries;
}

void BM_RangeScan_SortedRun(benchmark::State& state) {
  pgrid::LocalStoreOptions options;
  options.memtable_flush_threshold = 4096;
  options.max_runs = 8;
  pgrid::LocalStore store(options);
  for (const auto& e : BmEntries()) store.Apply(e);
  store.Compact();
  Workload w = MakeWorkload(BmEntries(), 7);
  size_t i = 0;
  uint64_t visited = 0;
  for (auto _ : state) {
    store.ScanRange(w.ranges[i++ % w.ranges.size()],
                    [&visited](const pgrid::EntryView& e) {
                      benchmark::DoNotOptimize(e.version);
                      ++visited;
                      return true;
                    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_RangeScan_SortedRun);

void BM_RangeScan_MapBaseline(benchmark::State& state) {
  MapStoreBaseline store;
  for (const auto& e : BmEntries()) store.Apply(e);
  Workload w = MakeWorkload(BmEntries(), 7);
  size_t i = 0;
  uint64_t visited = 0;
  for (auto _ : state) {
    auto got = store.GetRange(w.ranges[i++ % w.ranges.size()]);
    benchmark::DoNotOptimize(got.data());
    visited += got.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_RangeScan_MapBaseline);

void BM_PointScan_SortedRun(benchmark::State& state) {
  pgrid::LocalStoreOptions options;
  options.memtable_flush_threshold = 4096;
  options.max_runs = 8;
  pgrid::LocalStore store(options);
  for (const auto& e : BmEntries()) store.Apply(e);
  store.Compact();
  Workload w = MakeWorkload(BmEntries(), 7);
  size_t i = 0;
  for (auto _ : state) {
    store.ScanKey(w.point_keys[i++ % w.point_keys.size()],
                  [](const pgrid::EntryView& e) {
                    benchmark::DoNotOptimize(e.version);
                    return true;
                  });
  }
}
BENCHMARK(BM_PointScan_SortedRun);

void BM_Apply_SortedRun(benchmark::State& state) {
  pgrid::LocalStoreOptions options;
  options.memtable_flush_threshold = 4096;
  options.max_runs = 8;
  size_t i = 0;
  pgrid::LocalStore store(options);
  for (auto _ : state) {
    if (i == BmEntries().size()) {
      state.PauseTiming();
      store.Clear();
      i = 0;
      state.ResumeTiming();
    }
    store.Apply(BmEntries()[i++]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Apply_SortedRun);

}  // namespace

int main(int argc, char** argv) {
  PrintScan();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!g_identical) {
    std::printf("FAIL: engines returned different results\n");
    return 1;
  }
  if (!g_zero_alloc) {
    std::printf("FAIL: visitor read path allocated\n");
    return 1;
  }
  if (g_speedup_100k < 3.0) {
    std::printf("FAIL: range-scan speedup %.2fx below the 3x gate\n",
                g_speedup_100k);
    return 1;
  }
  return 0;
}
