// The measuring phases of bench_e2e: set-up, the open-loop pass and the
// traced run's closed-loop per-layer ladder.
#ifndef UNISTORE_BENCH_E2E_HARNESS_H_
#define UNISTORE_BENCH_E2E_HARNESS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/cluster.h"
#include "core/datagen.h"
#include "net/transport.h"
#include "oracle.h"
#include "pgrid/local_store.h"
#include "trace.h"
#include "workload.h"

namespace unistore {
namespace bench {
namespace e2e {

/// Gauges how fast the host runs right now, so host metrics can be read
/// at a fixed host speed. On a shared host the speed drifts by a third
/// between minutes, mostly with the memory latency that neighbours cause,
/// and a run is too short to average that out. The probe walks a random
/// cycle through a table far larger than the cores' private caches: a chain
/// of dependent loads that shares no code and no data with the program, so
/// a change to the program does not move it, and its time moves with the
/// host's memory latency the way the program's does.
class HostProbe {
 public:
  HostProbe();

  /// Walks the cycle once and records its wall time.
  void Sample();

  /// Median walk time ÷ the reference host's: above 1 on a slower host.
  /// Host times are divided by it and host rates multiplied.
  double Slowdown() const;

  double median_ms() const { return walk_ms_.Percentile(50); }
  size_t samples() const { return walk_ms_.count(); }

 private:
  std::vector<uint32_t> next_;
  uint32_t at_ = 0;  ///< Where the next walk starts.
  SampleStats walk_ms_;
};

/// A loaded cluster and what building it cost (host wall seconds).
struct Setup {
  std::unique_ptr<core::Cluster> cluster;
  double build_s = 0;  ///< Cluster construction (overlay + nodes).
  double load_s = 0;   ///< Cluster::BulkLoadTuplesSync of the dataset.
  double stats_s = 0;  ///< Cluster::RefreshStats.
};

/// Builds `options`' cluster and loads `data`; exits the process if the
/// load fails (no measurement is possible then).
Setup SetUp(const core::ClusterOptions& options,
            const core::Bibliography& data);

/// Storage-engine state summed over every peer.
struct StoreTotals {
  pgrid::LocalStoreWriteStats writes;
  size_t runs_max = 0;
  double runs_mean = 0;
  uint64_t resident_bytes = 0;
  uint64_t entries = 0;
};

/// What one open-loop pass measured.
struct OpenLoopResult {
  // --- Virtual clock: exact for a given seed ---
  SampleStats read_ms;   ///< Due time -> result callback.
  SampleStats write_ms;  ///< Due time -> InsertTuple ack.
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t wrong_rows = 0;
  uint64_t lost_writes = 0;  ///< Acked, then missing at read-back.
  uint64_t acked_writes = 0;
  net::TrafficStats traffic;  ///< Arrivals through drain.
  uint64_t events = 0;
  uint64_t fingerprint = 0;  ///< Digest of every op's outcome and time.
  /// Every op and read-back completed. Otherwise callbacks into the pass
  /// are still pending, and the cluster must not run any further.
  bool settled = false;

  // --- Host clock ---
  /// Sums over the steady windows: the 1-virtual-second windows while
  /// arrivals still come in, the first (warm-up) one excluded. Ratios of
  /// sums rather than medians of per-window ratios: a window's cost
  /// depends on which of the rare heavy queries it holds, so per-window
  /// ratios are multi-modal and their median jumps between modes.
  size_t steady_windows = 0;
  uint64_t steady_ops = 0;  ///< Ops completed in the steady windows.
  double steady_wall_s = 0;
  double steady_cpu_s = 0;

  /// Completed ops per wall second and process CPU per completed op over
  /// the steady windows (the whole pass when the stream is too short to
  /// have one).
  double HostOpsPerS() const;
  double CpuUsPerOp() const;

  // --- Per-layer counters (timed only when traced) ---
  uint64_t pending_max = 0;   ///< Queued events at a window boundary.
  uint64_t inflight_max = 0;  ///< Issued, not completed, at a boundary.
  uint64_t envelopes = 0;
  uint64_t sheds = 0;
  uint64_t deferred_relaunches = 0;
  SampleStats parse_us;  ///< vql::Parse.
  SampleStats plan_us;   ///< UniStore::PlanOnly (parses again).
  SampleStats issue_us;  ///< UniStore::QueryPlan's synchronous part.
  uint64_t rows_examined = 0;  ///< Sum of operator cardinalities.
  uint64_t rows_returned = 0;
  double sim_run_s = 0;   ///< Wall time inside Scheduler::RunFor.
  double sim_self_s = 0;  ///< ... minus the traced calls inside it.
  double wall_s = 0;      ///< Whole pass.
  double cpu_s = 0;       ///< Whole pass, process CPU.
  StoreTotals stores_before;
  StoreTotals stores_after;

  uint64_t failed() const {
    return errors + timeouts + wrong_rows + lost_writes;
  }
};

/// Runs `ops` open-loop on a loaded cluster and checks every result
/// against `oracle`, sampling `probe` after every steady window (outside
/// its timing). With a tracer, times every call and records spans for
/// every `span_every`-th op.
OpenLoopResult RunOpenLoop(core::Cluster& cluster, const std::vector<Op>& ops,
                           const std::vector<triple::Tuple>& contacts,
                           Oracle& oracle, HostProbe& probe, Tracer* tracer,
                           size_t span_every);

/// One closed-loop call measured at a layer's public entry.
struct LayerCost {
  SampleStats host_us;
  SampleStats msgs;
  SampleStats bytes;
  SampleStats virtual_ms;
};

/// What the ladder measured (traced run only).
struct LadderResult {
  std::array<LayerCost, kReadClasses> exec;  ///< UniStore::QueryPlan.
  /// |estimated - measured| / measured per query, the estimate summed
  /// over the plan's nodes.
  SampleStats msgs_error;
  SampleStats latency_error;
  /// TripleStore::GetByOid / GetByAttrValue / GetByAttrRange; host_us is
  /// self time (minus the pgrid call on the same key).
  std::array<LayerCost, 3> triple;
  uint64_t triples_kept = 0;
  uint64_t entries_seen = 0;
  LayerCost lookup;  ///< Peer::Lookup; host_us is self time.
  SampleStats lookup_hops;
  LayerCost range;   ///< Peer::RangeScanShower.
  SampleStats range_peers;
  SampleStats scan_us;  ///< LocalStore::ScanKey / ScanRange on the owners.
  uint64_t entries_visited = 0;
  uint64_t rows = 0;
  LayerCost insert;      ///< UniStore::InsertTuple.
  SampleStats postings;  ///< q-gram postings per inserted tuple.
  uint64_t wrong = 0;
};

/// Repeats a deterministic sample of ops at every layer's public entry,
/// one op at a time, after the open loop has drained: the first
/// `per_class` ops of each class in `ops`, plus a few seeded ops of each
/// class `ops` lacks.
LadderResult RunLadder(core::Cluster& cluster, const Workload& workload,
                       const std::vector<Op>& ops,
                       const core::Bibliography& data, Oracle& oracle,
                       Tracer& tracer, uint64_t seed, size_t per_class);

}  // namespace e2e
}  // namespace bench
}  // namespace unistore

#endif  // UNISTORE_BENCH_E2E_HARNESS_H_
