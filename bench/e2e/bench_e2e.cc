// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace=FILE]
//             [--json=FILE]
//   bench_e2e --smoke
//
// One run builds a core::Cluster, bulk-loads the workload's dataset,
// refreshes statistics, runs the seeded op stream open-loop, checks every
// result against the in-bench oracle and prints every metric as
// `name value unit n=samples`. Virtual metrics (simulated latency,
// messages, bytes) repeat exactly for a seed; host metrics (wall, CPU,
// RSS) are what the simulator, executor and storage engine cost on the
// host, with times scaled to a reference host speed that a probe gauges
// during the run. With --trace the same workload and seed run again with spans
// around every call the benchmark makes into the program, then a
// closed-loop ladder repeats sampled ops at each layer's public entry; the
// per-layer metrics come from that run and the spans go to FILE as JSON.
// The exit code is non-zero on any wrong result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

using namespace unistore;
using namespace unistore::bench::e2e;

namespace {

constexpr size_t kSetupReps = 3;
constexpr size_t kSpanCapacity = 200000;
constexpr size_t kLadderPerClass = 200;
constexpr size_t kSmokeOps = 300;
constexpr size_t kSmokeLadderPerClass = 10;

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

class Report {
 public:
  void Add(std::string name, double value, const char* unit,
           uint64_t samples) {
    metrics_.push_back({std::move(name), value, unit, samples});
  }

  void AddMean(std::string name, const SampleStats& s, const char* unit,
               double scale = 1) {
    Add(std::move(name), s.mean() * scale, unit, s.count());
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%s %.17g %s n=%" PRIu64 "\n", m.name.c_str(), m.value,
                  m.unit, m.samples);
    }
  }

  bool WriteJson(const std::string& path) const {
    bench::GateJson json;
    for (const Metric& m : metrics_) json.Add(m.name, m.value);
    return json.WriteTo(path);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    uint64_t samples;
  };
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;
  std::string json_file;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&arg](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? arg.data() + flag.size()
                                                : nullptr;
    };
    if (arg == "--smoke") {
      args->smoke = true;
    } else if (const char* v = value("--workload=")) {
      args->workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      args->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      have_seed = true;
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      args->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      args->trace_file = v;
    } else if (const char* v = value("--json=")) {
      args->json_file = v;
    } else {
      return false;
    }
  }
  return args->smoke || (have_workload && have_seed);
}

/// Everything a run needs besides the cluster.
struct Inputs {
  core::Bibliography data;
  std::vector<Op> ops;
  std::vector<triple::Tuple> contacts;
  Oracle oracle;  ///< Holds references to data and contacts.

  Inputs(const Workload& w, uint64_t seed, size_t count)
      : data(Dataset(w)),
        ops(GenerateOps(w, data, seed, count)),
        contacts(Contacts(ops, seed)),
        oracle(data, contacts) {}
};

/// True iff two passes over the same inputs agree on every virtual metric.
/// The fingerprint digests every op's completion time, so equal
/// fingerprints mean equal latencies.
bool SameVirtual(const OpenLoopResult& a, const OpenLoopResult& b,
                 const char* what) {
  const bool same = a.fingerprint == b.fingerprint &&
                    a.traffic.messages_sent == b.traffic.messages_sent &&
                    a.traffic.bytes_sent == b.traffic.bytes_sent &&
                    a.events == b.events && a.failed() == b.failed();
  if (!same) {
    std::fprintf(stderr,
                 "%s: virtual metrics differ (msgs %" PRIu64 " vs %" PRIu64
                 ", events %" PRIu64 " vs %" PRIu64 ")\n",
                 what, a.traffic.messages_sent, b.traffic.messages_sent,
                 a.events, b.events);
  }
  return same;
}

// Host metrics are read at the reference host speed (see HostProbe).
void AddEndToEnd(const OpenLoopResult& r, const SampleStats& setups,
                 const HostProbe& probe, Report* report) {
  const double attempted = static_cast<double>(r.attempted);
  const double slowdown = probe.Slowdown();
  report->Add("setup_s", setups.Percentile(50) / slowdown, "s",
              setups.count());
  report->Add("host_ops_per_s", r.HostOpsPerS() * slowdown, "ops/s",
              r.steady_ops);
  report->Add("cpu_us_per_op", r.CpuUsPerOp() / slowdown, "us",
              r.steady_ops);
  // The same as measured, and the probe they are scaled by.
  report->Add("host.probe_ms", probe.median_ms(), "ms", probe.samples());
  report->Add("host.raw_ops_per_s", r.HostOpsPerS(), "ops/s", r.steady_ops);
  report->Add("host.raw_cpu_us_per_op", r.CpuUsPerOp(), "us", r.steady_ops);
  report->Add("read_p50_ms", r.read_ms.Percentile(50), "ms",
              r.read_ms.count());
  report->Add("read_p99_ms", r.read_ms.Percentile(99), "ms",
              r.read_ms.count());
  report->Add("write_p50_ms", r.write_ms.Percentile(50), "ms",
              r.write_ms.count());
  report->Add("write_p99_ms", r.write_ms.Percentile(99), "ms",
              r.write_ms.count());
  report->Add("msgs_per_op",
              static_cast<double>(r.traffic.messages_sent) / attempted,
              "msgs", r.attempted);
  report->Add("kb_per_op",
              static_cast<double>(r.traffic.bytes_sent) / 1024.0 / attempted,
              "KB", r.attempted);
  report->Add("failed_frac", static_cast<double>(r.failed()) / attempted,
              "ratio", r.attempted);
}

void AddLayerCost(const std::string& prefix, const LayerCost& c,
                  Report* report) {
  report->AddMean(prefix + "_us", c.host_us, "us");
  report->AddMean(prefix + "_msgs", c.msgs, "msgs");
  report->AddMean(prefix + "_virtual_ms", c.virtual_ms, "ms");
}

/// Host seconds of each set-up phase, one sample per set-up.
struct SetupTimes {
  SampleStats total, build, load, stats;

  void Add(const Setup& s) {
    total.Add(s.build_s + s.load_s + s.stats_s);
    build.Add(s.build_s);
    load.Add(s.load_s);
    stats.Add(s.stats_s);
  }
};

void AddPerLayer(const SetupTimes& setups, const OpenLoopResult& plain,
                 const OpenLoopResult& traced, const LadderResult& ladder,
                 const Tracer& tracer, Report* report) {
  const double attempted = static_cast<double>(traced.attempted);
  const uint64_t n = traced.attempted;

  report->Add("core.setup.build_s", setups.build.Percentile(50), "s",
              setups.build.count());
  report->Add("core.setup.load_s", setups.load.Percentile(50), "s",
              setups.load.count());
  report->Add("core.setup.stats_s", setups.stats.Percentile(50), "s",
              setups.stats.count());
  AddLayerCost("core.insert_tuple", ladder.insert, report);

  report->AddMean("vql.parse_us", traced.parse_us, "us");
  report->AddMean("plan.plan_us", traced.plan_us, "us");
  report->Add("plan.rows_examined_per_row",
              Ratio(static_cast<double>(traced.rows_examined),
                    static_cast<double>(traced.rows_returned)),
              "ratio", traced.rows_returned);
  report->AddMean("cost.msgs_error", ladder.msgs_error, "ratio");
  report->AddMean("cost.latency_error", ladder.latency_error, "ratio");

  report->AddMean("exec.issue_us", traced.issue_us, "us");
  for (size_t c = 0; c < kReadClasses; ++c) {
    const std::string cls(OpClassName(static_cast<OpClass>(c)));
    const LayerCost& e = ladder.exec[c];
    report->AddMean("exec.run_us." + cls, e.host_us, "us");
    report->AddMean("exec.msgs." + cls, e.msgs, "msgs");
    report->AddMean("exec.kb." + cls, e.bytes, "KB", 1 / 1024.0);
    report->AddMean("exec.virtual_ms." + cls, e.virtual_ms, "ms");
  }
  report->Add("exec.envelopes_per_op",
              static_cast<double>(traced.envelopes) / attempted, "count", n);
  report->Add("exec.sheds", static_cast<double>(traced.sheds), "count", n);
  report->Add("exec.deferred_relaunches",
              static_cast<double>(traced.deferred_relaunches), "count", n);

  AddLayerCost("triple.get_by_oid", ladder.triple[0], report);
  AddLayerCost("triple.get_by_attr_value", ladder.triple[1], report);
  AddLayerCost("triple.get_by_attr_range", ladder.triple[2], report);
  report->Add("triple.postfilter_keep_ratio",
              Ratio(static_cast<double>(ladder.triples_kept),
                    static_cast<double>(ladder.entries_seen)),
              "ratio", ladder.entries_seen);

  AddLayerCost("pgrid.lookup", ladder.lookup, report);
  report->AddMean("pgrid.lookup_hops", ladder.lookup_hops, "hops");
  report->AddMean("pgrid.range_peers", ladder.range_peers, "peers");
  report->AddMean("pgrid.range_msgs", ladder.range.msgs, "msgs");
  uint64_t retries = 0;
  for (const auto& [policy, count] : traced.traffic.retries_by_policy) {
    retries += count;
  }
  report->Add("pgrid.retries_per_1k_ops",
              1000.0 * static_cast<double>(retries) / attempted, "count", n);

  const StoreTotals& s0 = traced.stores_before;
  const StoreTotals& s1 = traced.stores_after;
  const double writes = static_cast<double>(traced.acked_writes);
  const uint64_t ingested_bytes =
      s1.writes.ingested_bytes - s0.writes.ingested_bytes;
  const uint64_t written_bytes =
      (s1.writes.flushed_bytes + s1.writes.compacted_bytes +
       s1.writes.bulk_loaded_bytes) -
      (s0.writes.flushed_bytes + s0.writes.compacted_bytes +
       s0.writes.bulk_loaded_bytes);
  report->AddMean("local_store.scan_us", ladder.scan_us, "us");
  report->Add("local_store.entries_visited_per_row",
              Ratio(static_cast<double>(ladder.entries_visited),
                    static_cast<double>(ladder.rows)),
              "ratio", ladder.rows);
  report->Add("local_store.write_amp",
              Ratio(static_cast<double>(written_bytes),
                    static_cast<double>(ingested_bytes)),
              "ratio", traced.acked_writes);
  report->Add("local_store.entries_ingested_per_write",
              Ratio(static_cast<double>(s1.writes.ingested_entries -
                                        s0.writes.ingested_entries),
                    writes),
              "count", traced.acked_writes);
  report->Add("local_store.compactions_per_1k_writes",
              Ratio(1000.0 * static_cast<double>(s1.writes.compactions -
                                                 s0.writes.compactions),
                    writes),
              "count", traced.acked_writes);
  report->Add("local_store.runs_max", static_cast<double>(s1.runs_max),
              "runs", 1);
  report->Add("local_store.runs_mean", s1.runs_mean, "runs", 1);
  report->Add("local_store.resident_bytes_per_entry",
              Ratio(static_cast<double>(s1.resident_bytes),
                    static_cast<double>(s1.entries)),
              "B", s1.entries);
  report->AddMean("qgram.postings_per_write", ladder.postings, "count");

  for (net::MessageType type :
       {net::MessageType::kLookup, net::MessageType::kLookupReply,
        net::MessageType::kBulkInsert, net::MessageType::kBulkInsertReply,
        net::MessageType::kReplicaPush, net::MessageType::kRangeSeq,
        net::MessageType::kRangeSeqReply, net::MessageType::kRangeShower,
        net::MessageType::kRangeShowerReply, net::MessageType::kPlanExec,
        net::MessageType::kPlanExecReply,
        net::MessageType::kPlanExecPartial}) {
    const auto it = traced.traffic.per_type.find(type);
    const double count = it == traced.traffic.per_type.end()
                             ? 0
                             : static_cast<double>(it->second);
    report->Add("net.msgs_per_op." + std::string(net::MessageTypeName(type)),
                count / attempted, "msgs", n);
  }
  report->Add("net.bytes_per_msg",
              Ratio(static_cast<double>(traced.traffic.bytes_sent),
                    static_cast<double>(traced.traffic.messages_sent)),
              "B", traced.traffic.messages_sent);
  report->Add("net.dropped_per_1k_ops",
              1000.0 * static_cast<double>(traced.traffic.total_dropped()) /
                  attempted,
              "count", n);

  report->Add("sim.events_per_op",
              static_cast<double>(traced.events) / attempted, "events", n);
  report->Add("sim.events_per_s",
              Ratio(static_cast<double>(traced.events), traced.sim_run_s),
              "events/s", traced.events);
  report->Add("sim.pending_max", static_cast<double>(traced.pending_max),
              "events", 1);
  report->Add("sim.inflight_max", static_cast<double>(traced.inflight_max),
              "ops", 1);

  report->Add("trace.overhead_frac",
              1.0 - traced.HostOpsPerS() / plain.HostOpsPerS(), "ratio",
              traced.steady_windows);
  report->Add("trace.async_share", Ratio(traced.sim_self_s, traced.wall_s),
              "ratio", tracer.spans().size());
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const Workload& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(args.seconds * workload->ops_per_wall_s));
  Inputs in(*workload, args.seed, count);

  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows; the last cluster runs the workload. The probe samples the
  // host before each set-up and after each steady window.
  HostProbe probe;
  SetupTimes setups;
  auto set_up = [&]() {
    probe.Sample();
    Setup s = SetUp(workload->cluster, in.data);
    setups.Add(s);
    return s;
  };
  // A traced run builds one more cluster for its traced pass, so it sets
  // up one time less here. Each pass then runs on a cluster built after an
  // earlier one was torn down, so both see a comparable heap.
  const size_t reps = args.trace_file.empty() ? kSetupReps : kSetupReps - 1;
  Setup setup;
  for (size_t r = 0; r < reps; ++r) {
    setup.cluster.reset();
    setup = set_up();
  }
  const OpenLoopResult plain =
      RunOpenLoop(*setup.cluster, in.ops, in.contacts, in.oracle, probe,
                  nullptr, 1);
  setup.cluster.reset();
  bool correct = plain.failed() == 0;

  Report report;
  AddEndToEnd(plain, setups.total, probe, &report);

  if (!args.trace_file.empty()) {
    Setup traced_setup = set_up();
    Tracer tracer(kSpanCapacity);
    const OpenLoopResult traced =
        RunOpenLoop(*traced_setup.cluster, in.ops, in.contacts, in.oracle,
                    probe, &tracer, workload->span_every);
    correct = SameVirtual(plain, traced, "traced vs untraced") && correct;
    const LadderResult ladder =
        traced.settled
            ? RunLadder(*traced_setup.cluster, *workload, in.ops, in.data,
                        in.oracle, tracer, args.seed, kLadderPerClass)
            : LadderResult{};
    if (ladder.wrong != 0) {
      std::fprintf(stderr, "ladder: %" PRIu64 " wrong results\n",
                   ladder.wrong);
      correct = false;
    }
    AddPerLayer(setups, plain, traced, ladder, tracer, &report);
    if (!tracer.WriteJson(args.trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      correct = false;
    }
  }
  // Measured last, so it covers every phase of the run.
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);

  report.Print();
  if (!args.json_file.empty() && !report.WriteJson(args.json_file)) {
    std::fprintf(stderr, "cannot write %s\n", args.json_file.c_str());
    correct = false;
  }
  std::printf("result correct=%d attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              correct ? 1 : 0, plain.attempted, plain.failed());
  return correct ? 0 : 1;
}

// Short runs of every workload asserting the benchmark's own contract.
int Smoke() {
  bool ok = true;
  auto check = [&ok](bool cond, const std::string& what) {
    std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what.c_str());
    ok = ok && cond;
  };
  HostProbe probe;
  for (const Workload& w : Workloads()) {
    Inputs in(w, /*seed=*/1, kSmokeOps);
    Setup a = SetUp(w.cluster, in.data);
    const OpenLoopResult plain = RunOpenLoop(*a.cluster, in.ops, in.contacts,
                                             in.oracle, probe, nullptr, 1);
    a.cluster.reset();
    check(plain.failed() == 0, w.name + ": oracle passes");

    Setup b = SetUp(w.cluster, in.data);
    Tracer tracer(kSpanCapacity);
    const OpenLoopResult traced =
        RunOpenLoop(*b.cluster, in.ops, in.contacts, in.oracle, probe,
                    &tracer, w.span_every);
    check(SameVirtual(plain, traced, w.name.c_str()),
          w.name + ": traced run matches untraced");
    const bool ladder_ok =
        traced.settled &&
        RunLadder(*b.cluster, w, in.ops, in.data, in.oracle, tracer, 1,
                  kSmokeLadderPerClass)
                .wrong == 0;
    b.cluster.reset();
    check(ladder_ok, w.name + ": ladder results match the oracle");

    if (w.cluster.engine == core::ClusterOptions::Engine::kSharded) {
      core::ClusterOptions single = w.cluster;
      single.engine = core::ClusterOptions::Engine::kSingleThread;
      Setup c = SetUp(single, in.data);
      const OpenLoopResult one = RunOpenLoop(*c.cluster, in.ops, in.contacts,
                                             in.oracle, probe, nullptr, 1);
      check(SameVirtual(plain, one, w.name.c_str()),
            w.name + ": single-thread engine matches inline sharded");
    }
  }
  const Workload& first = Workloads().front();
  const core::Bibliography data = Dataset(first);
  const std::vector<Op> s1 = GenerateOps(first, data, 1, kSmokeOps);
  const std::vector<Op> s2 = GenerateOps(first, data, 2, kSmokeOps);
  bool differ = false;
  for (size_t i = 0; i < s1.size(); ++i) {
    differ = differ || s1[i].due_us != s2[i].due_us ||
             s1[i].via != s2[i].via || s1[i].vql != s2[i].vql;
  }
  check(differ, "a different seed changes the op stream");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<name> --seed=<n> "
                 "[--seconds=<s>] [--trace=FILE] [--json=FILE]\n"
                 "       bench_e2e --smoke\n");
    return 2;
  }
  return args.smoke ? Smoke() : Run(args);
}
