#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <set>

#include "common/rng.h"
#include "qgram/qgram.h"
#include "triple/index.h"
#include "vql/parser.h"

namespace unistore {
namespace bench {
namespace e2e {
namespace {

constexpr sim::SimTime kWindowUs = sim::kMicrosPerSecond;
/// Virtual seconds an op may stay open after the last arrival before it
/// counts as timed out (well past every retry budget and scan deadline).
constexpr size_t kDrainWindows = 120;
constexpr int kMaxReportedMismatches = 5;
/// Ladder ops of each class the workload's stream does not contain.
constexpr size_t kProbesPerClass = 10;
/// The host probe's table (8 MiB, 4x a core's L2) and one walk's length,
/// ~20 ms; a walk continues where the last one stopped.
constexpr uint32_t kProbeSlots = uint32_t{1} << 21;
constexpr int kProbeSteps = 200000;
/// Median walk time on the host the baselines were recorded on.
constexpr double kReferenceWalkMs = 20.0;

const char* const kOpSpan[kClasses] = {
    "op.point", "op.exact", "op.range",   "op.substring", "op.similarity",
    "op.top5",  "op.join",  "op.skyline", "op.insert"};
const char* const kLadderSpan[kClasses] = {
    "ladder.point", "ladder.exact", "ladder.range",
    "ladder.substring", "ladder.similarity", "ladder.top5",
    "ladder.join", "ladder.skyline", "ladder.insert"};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Millis(sim::SimTime us) { return static_cast<double>(us) / 1e3; }

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// Process CPU time in nanoseconds.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

StoreTotals SumStores(core::Cluster& cluster) {
  StoreTotals t;
  pgrid::Overlay& overlay = cluster.overlay();
  size_t runs = 0;
  for (size_t i = 0; i < overlay.size(); ++i) {
    const pgrid::LocalStore& store =
        overlay.peer(static_cast<net::PeerId>(i))->store();
    const pgrid::LocalStoreWriteStats& w = store.write_stats();
    t.writes.ingested_entries += w.ingested_entries;
    t.writes.ingested_bytes += w.ingested_bytes;
    t.writes.flushed_entries += w.flushed_entries;
    t.writes.flushed_bytes += w.flushed_bytes;
    t.writes.compacted_entries += w.compacted_entries;
    t.writes.compacted_bytes += w.compacted_bytes;
    t.writes.bulk_loaded_entries += w.bulk_loaded_entries;
    t.writes.bulk_loaded_bytes += w.bulk_loaded_bytes;
    t.writes.compactions += w.compactions;
    t.runs_max = std::max(t.runs_max, store.run_count());
    runs += store.run_count();
    t.resident_bytes += store.resident_bytes();
    t.entries += store.total_size();
  }
  t.runs_mean = overlay.size() ? static_cast<double>(runs) /
                                     static_cast<double>(overlay.size())
                               : 0;
  return t;
}

struct NodeCounters {
  uint64_t envelopes = 0;
  uint64_t sheds = 0;
  uint64_t deferred = 0;
};

NodeCounters SumNodes(core::Cluster& cluster) {
  NodeCounters c;
  for (size_t i = 0; i < cluster.size(); ++i) {
    exec::QueryService& service =
        cluster.node(static_cast<net::PeerId>(i)).service();
    c.envelopes += service.envelopes_processed();
    c.sheds += service.sheds();
    c.deferred += service.deferred_relaunches();
  }
  return c;
}

// Sum of the operator cardinalities an executor trace reports ("... -> N
// rows" per completed operator).
uint64_t RowsExamined(const std::vector<std::string>& trace) {
  uint64_t total = 0;
  for (const std::string& line : trace) {
    const size_t arrow = line.rfind("-> ");
    if (arrow == std::string::npos) continue;
    total += std::strtoull(line.c_str() + arrow + 3, nullptr, 10);
  }
  return total;
}

class OpenLoop {
 public:
  OpenLoop(core::Cluster& cluster, const std::vector<Op>& ops,
           const std::vector<triple::Tuple>& contacts, Oracle& oracle,
           HostProbe& probe, Tracer* tracer, size_t span_every)
      : cluster_(cluster),
        scheduler_(cluster.scheduler()),
        ops_(ops),
        contacts_(contacts),
        probe_(probe),
        tracer_(tracer),
        span_every_(std::max<size_t>(1, span_every)),
        state_(ops.size()),
        insert_of_contact_(contacts.size(), ops.size()) {
    expected_.reserve(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      expected_.push_back(ops[i].cls == OpClass::kInsert
                              ? RowsDigest{}
                              : oracle.ExpectedDigest(ops[i]));
      if (ops[i].cls == OpClass::kInsert) {
        insert_of_contact_[ops[i].target] = i;
      }
    }
  }

  OpenLoopResult Run();

 private:
  struct OpState {
    bool done = false;
    bool ok = false;
    bool wrong = false;
    sim::SimTime done_us = 0;
    uint64_t root_span = 0;
  };

  void Issue(size_t i);
  void Complete(size_t i, bool ok, const exec::QueryResult* result);
  // One Scheduler::RunFor slice, traced as a sim.run span.
  void RunSlice(OpenLoopResult* out);
  // Reads every acked contact back once the stream has drained; returns
  // whether every read-back completed.
  bool ReadBack(OpenLoopResult* out);
  bool Acked(size_t insert_op) const {
    return insert_op < state_.size() && state_[insert_op].done &&
           state_[insert_op].ok;
  }

  core::Cluster& cluster_;
  sim::Scheduler& scheduler_;
  const std::vector<Op>& ops_;
  const std::vector<triple::Tuple>& contacts_;
  HostProbe& probe_;
  Tracer* tracer_;
  size_t span_every_;
  std::vector<OpState> state_;
  std::vector<RowsDigest> expected_;
  std::vector<size_t> insert_of_contact_;
  sim::SimTime t0_ = 0;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  int64_t traced_call_ns_ = 0;  ///< Host time inside timed calls.
  OpenLoopResult* out_ = nullptr;
  int reported_ = 0;
};

void OpenLoop::Issue(size_t i) {
  const Op& op = ops_[i];
  ++issued_;
  core::UniStore& node = cluster_.node(op.via);
  const bool timed = tracer_ != nullptr;
  const bool spanned = timed && i % span_every_ == 0;
  const uint64_t trace_id = i + 1;
  const sim::SimTime now = scheduler_.Now();
  const uint64_t root =
      spanned ? tracer_->Begin(kOpSpan[static_cast<size_t>(op.cls)], trace_id,
                               0, now)
              : 0;
  state_[i].root_span = root;
  auto begin = [&](const char* name) {
    return spanned ? tracer_->Begin(name, trace_id, root, now) : 0;
  };
  auto end = [&](uint64_t span) {
    if (spanned) tracer_->End(span, now);
  };

  if (op.cls == OpClass::kInsert) {
    const int64_t a = timed ? HostNs() : 0;
    const uint64_t span = begin("core.insert_tuple");
    node.InsertTuple(contacts_[op.target],
                     [this, i](Status s) { Complete(i, s.ok(), nullptr); });
    end(span);
    if (timed) traced_call_ns_ += HostNs() - a;
    return;
  }

  const int64_t a = timed ? HostNs() : 0;
  uint64_t span = begin("vql.parse");
  const bool parsed = vql::Parse(op.vql).ok();
  end(span);
  const int64_t b = timed ? HostNs() : 0;
  if (!parsed) {
    Complete(i, false, nullptr);
    return;
  }
  span = begin("plan.plan_only");
  Result<plan::PhysicalPlan> plan = node.PlanOnly(op.vql);
  end(span);
  const int64_t c = timed ? HostNs() : 0;
  if (!plan.ok()) {
    Complete(i, false, nullptr);
    return;
  }
  span = begin("exec.query_plan");
  node.QueryPlan(*plan, [this, i](Result<exec::QueryResult> r) {
    Complete(i, r.ok(), r.ok() ? &*r : nullptr);
  });
  end(span);
  if (timed) {
    const int64_t d = HostNs();
    out_->parse_us.Add(Micros(b - a));
    out_->plan_us.Add(Micros(c - b));
    out_->issue_us.Add(Micros(d - c));
    traced_call_ns_ += d - a;
  }
}

void OpenLoop::Complete(size_t i, bool ok, const exec::QueryResult* result) {
  const Op& op = ops_[i];
  OpState& st = state_[i];
  st.done = true;
  st.ok = ok;
  st.done_us = scheduler_.Now();
  ++completed_;
  if (result != nullptr) {
    const RowsDigest got = DigestOf(result->rows);
    const RowsDigest& want = expected_[i];
    if (op.contact) {
      // Read-your-acked-writes: a write acked before the read was issued
      // must be visible; one still in flight may or may not be.
      const size_t insert = insert_of_contact_[op.target];
      const bool acked_before = Acked(insert) &&
                                state_[insert].done_us <= t0_ + op.due_us;
      st.wrong = got != want && (acked_before || got.count != 0);
    } else {
      st.wrong = got != want;
    }
    if (st.wrong && reported_ < kMaxReportedMismatches) {
      ++reported_;
      std::fprintf(stderr, "wrong rows: op %zu (%s) via %u: %s\ngot:\n%s",
                   i, std::string(OpClassName(op.cls)).c_str(), op.via,
                   op.vql.c_str(), RenderRows(result->rows).c_str());
    }
    if (tracer_ != nullptr) {
      out_->rows_examined += RowsExamined(result->trace);
      out_->rows_returned += result->rows.size();
    }
  }
  if (st.root_span != 0) {
    tracer_->End(st.root_span, st.done_us,
                 result != nullptr
                     ? static_cast<int64_t>(result->rows.size())
                     : 0);
  }
}

void OpenLoop::RunSlice(OpenLoopResult* out) {
  const uint64_t span =
      tracer_ ? tracer_->Begin("sim.run", 0, 0, scheduler_.Now()) : 0;
  const int64_t a = HostNs();
  const int64_t calls_before = traced_call_ns_;
  const size_t events = scheduler_.RunFor(kWindowUs);
  const int64_t run_ns = HostNs() - a;
  out->events += events;
  if (tracer_ != nullptr) {
    tracer_->End(span, scheduler_.Now(), static_cast<int64_t>(events));
    out->sim_run_s += Seconds(run_ns);
    out->sim_self_s += Seconds(run_ns - (traced_call_ns_ - calls_before));
  }
  out->pending_max = std::max<uint64_t>(out->pending_max,
                                        scheduler_.pending_events());
  out->inflight_max = std::max(out->inflight_max, issued_ - completed_);
}

bool OpenLoop::ReadBack(OpenLoopResult* out) {
  std::vector<size_t> contacts;
  for (size_t c = 0; c < contacts_.size(); ++c) {
    if (Acked(insert_of_contact_[c])) contacts.push_back(c);
  }
  out->acked_writes = contacts.size();
  if (contacts.empty()) return true;
  std::vector<std::optional<bool>> found(contacts.size());
  const sim::SimTime at = scheduler_.Now() + 1;
  for (size_t k = 0; k < contacts.size(); ++k) {
    const size_t c = contacts[k];
    const net::PeerId via = ops_[insert_of_contact_[c]].via;
    const RowsDigest want = DigestOf(TupleRows(contacts_[c]));
    scheduler_.ScheduleEvent(at, sim::kHarnessDomain, via, [this, k, c, via,
                                                            want, &found] {
      cluster_.node(via).Query(
          "SELECT ?p,?v WHERE { ('" + contacts_[c].oid + "',?p,?v) }",
          [k, want, &found](Result<exec::QueryResult> r) {
            found[k] = r.ok() && DigestOf(r->rows) == want;
          });
    });
  }
  auto all_done = [&found] {
    return std::all_of(found.begin(), found.end(),
                       [](const std::optional<bool>& f) {
                         return f.has_value();
                       });
  };
  for (size_t w = 0; w < kDrainWindows && !all_done(); ++w) {
    scheduler_.RunFor(kWindowUs);
  }
  for (size_t k = 0; k < found.size(); ++k) {
    if (found[k].value_or(false)) continue;
    ++out->lost_writes;
    if (reported_ < kMaxReportedMismatches) {
      ++reported_;
      std::fprintf(stderr, "lost acked write: %s\n",
                   contacts_[contacts[k]].oid.c_str());
    }
  }
  return all_done();
}

OpenLoopResult OpenLoop::Run() {
  OpenLoopResult out;
  out_ = &out;
  out.attempted = ops_.size();
  net::Transport& transport = cluster_.overlay().transport();
  const net::TrafficStats traffic_before = transport.stats();
  const NodeCounters nodes_before = SumNodes(cluster_);
  if (tracer_ != nullptr) out.stores_before = SumStores(cluster_);
  t0_ = scheduler_.Now();
  const int64_t wall_start = HostNs();
  const int64_t cpu_start = CpuNs();

  size_t next = 0;
  for (size_t w = 0; next < ops_.size(); ++w) {
    const int64_t host0 = HostNs();
    const int64_t cpu0 = CpuNs();
    const uint64_t completed0 = completed_;
    const sim::SimTime window_end =
        t0_ + static_cast<sim::SimTime>(w + 1) * kWindowUs;
    for (; next < ops_.size() && t0_ + ops_[next].due_us < window_end;
         ++next) {
      // The owner form runs the op on its initiator's shard.
      scheduler_.ScheduleEvent(t0_ + ops_[next].due_us, sim::kHarnessDomain,
                               ops_[next].via, [this, i = next] { Issue(i); });
    }
    RunSlice(&out);
    if (w >= 1 && next < ops_.size()) {
      ++out.steady_windows;
      out.steady_ops += completed_ - completed0;
      out.steady_wall_s += Seconds(HostNs() - host0);
      out.steady_cpu_s += Seconds(CpuNs() - cpu0);
      probe_.Sample();
    }
  }
  for (size_t w = 0; w < kDrainWindows && completed_ < ops_.size(); ++w) {
    RunSlice(&out);
  }
  out.wall_s = Seconds(HostNs() - wall_start);
  out.cpu_s = Seconds(CpuNs() - cpu_start);
  out.traffic = transport.stats().Since(traffic_before);
  const NodeCounters nodes_after = SumNodes(cluster_);
  out.envelopes = nodes_after.envelopes - nodes_before.envelopes;
  out.sheds = nodes_after.sheds - nodes_before.sheds;
  out.deferred_relaunches = nodes_after.deferred - nodes_before.deferred;
  if (tracer_ != nullptr) out.stores_after = SumStores(cluster_);

  uint64_t h = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const OpState& st = state_[i];
    h = Mix(h, i);
    h = Mix(h, st.done ? static_cast<uint64_t>(st.done_us - t0_) : ~0ull);
    h = Mix(h, (st.ok ? 1 : 0) | (st.wrong ? 2 : 0));
    if (!st.done) {
      ++out.timeouts;
      continue;
    }
    if (!st.ok) {
      ++out.errors;
      continue;
    }
    if (st.wrong) ++out.wrong_rows;
    const double ms = Millis(st.done_us - (t0_ + ops_[i].due_us));
    (ops_[i].cls == OpClass::kInsert ? out.write_ms : out.read_ms).Add(ms);
  }
  out.fingerprint = h;
  out.settled = ReadBack(&out) && completed_ == ops_.size();
  return out;
}

}  // namespace

HostProbe::HostProbe() : next_(kProbeSlots) {
  // Sattolo's shuffle: one cycle through every slot.
  for (uint32_t i = 0; i < kProbeSlots; ++i) next_[i] = i;
  Rng rng(kProbeSlots);
  for (uint32_t i = kProbeSlots - 1; i > 0; --i) {
    std::swap(next_[i], next_[rng.NextBounded(i)]);
  }
}

void HostProbe::Sample() {
  const int64_t a = HostNs();
  uint32_t at = at_;
  for (int k = 0; k < kProbeSteps; ++k) at = next_[at];
  walk_ms_.Add(static_cast<double>(HostNs() - a) / 1e6);
  at_ = at;
}

double HostProbe::Slowdown() const {
  return samples() > 0 ? median_ms() / kReferenceWalkMs : 1.0;
}

double OpenLoopResult::HostOpsPerS() const {
  return steady_ops > 0 ? static_cast<double>(steady_ops) / steady_wall_s
                        : static_cast<double>(attempted) / wall_s;
}

double OpenLoopResult::CpuUsPerOp() const {
  return steady_ops > 0
             ? 1e6 * steady_cpu_s / static_cast<double>(steady_ops)
             : 1e6 * cpu_s / static_cast<double>(attempted);
}

namespace {

// What one closed-loop call cost.
struct CallCost {
  double host_us = 0;
  double msgs = 0;
  double bytes = 0;
  double virtual_ms = 0;
};

// Adds `call` to `layer`, with `self_us` as the layer's host time.
void AddCall(const CallCost& call, double self_us, LayerCost* layer) {
  layer->host_us.Add(self_us);
  layer->msgs.Add(call.msgs);
  layer->bytes.Add(call.bytes);
  layer->virtual_ms.Add(call.virtual_ms);
}

// Runs one asynchronous call to completion from harness context.
template <typename R, typename Call>
R Await(core::Cluster& cluster, CallCost* cost, Call&& call) {
  sim::Scheduler& scheduler = cluster.scheduler();
  net::Transport& transport = cluster.overlay().transport();
  const net::TrafficStats before = transport.stats();
  const sim::SimTime start = scheduler.Now();
  const int64_t h0 = HostNs();
  std::optional<R> out;
  sim::SimTime done_at = start;
  call([&out, &done_at, &scheduler](R r) {
    out = std::move(r);
    done_at = scheduler.Now();
  });
  scheduler.RunUntil([&out] { return out.has_value(); });
  // Settle what the call left behind (replica pushes, timers), so its
  // traffic is all counted and the next call starts from quiet.
  scheduler.RunUntilIdle();
  const net::TrafficStats delta = transport.stats().Since(before);
  cost->host_us = Micros(HostNs() - h0);
  cost->msgs = static_cast<double>(delta.messages_sent);
  cost->bytes = static_cast<double>(delta.bytes_sent);
  cost->virtual_ms = Millis(done_at - start);
  if (!out.has_value()) return R(Status::Internal("drained before completion"));
  return std::move(*out);
}

// The optimizer annotates only pattern scans with a cost, so the plan's
// estimate is the sum over its nodes.
cost::Cost PlanEstimate(const plan::PhysicalOp& op) {
  cost::Cost total = op.estimated_cost;
  for (const auto& child : op.children) total = total + PlanEstimate(*child);
  return total;
}

}  // namespace


Setup SetUp(const core::ClusterOptions& options,
            const core::Bibliography& data) {
  Setup setup;
  const int64_t a = HostNs();
  setup.cluster = std::make_unique<core::Cluster>(options);
  const int64_t b = HostNs();
  const Status loaded = setup.cluster->BulkLoadTuplesSync(0, data.AllTuples());
  const int64_t c = HostNs();
  if (!loaded.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", loaded.ToString().c_str());
    std::exit(1);
  }
  setup.cluster->RefreshStats();
  const int64_t d = HostNs();
  setup.build_s = Seconds(b - a);
  setup.load_s = Seconds(c - b);
  setup.stats_s = Seconds(d - c);
  return setup;
}


OpenLoopResult RunOpenLoop(core::Cluster& cluster, const std::vector<Op>& ops,
                           const std::vector<triple::Tuple>& contacts,
                           Oracle& oracle, HostProbe& probe, Tracer* tracer,
                           size_t span_every) {
  OpenLoop loop(cluster, ops, contacts, oracle, probe, tracer, span_every);
  return loop.Run();
}

LadderResult RunLadder(core::Cluster& cluster, const Workload& workload,
                       const std::vector<Op>& ops,
                       const core::Bibliography& data, Oracle& oracle,
                       Tracer& tracer, uint64_t seed, size_t per_class) {
  // The first `per_class` stream ops of each class, then a few probe ops of
  // every class the stream lacks, so each per-layer metric is measured on
  // every workload.
  std::vector<Op> sample;
  std::array<size_t, kClasses> taken{};
  for (const Op& op : ops) {
    const size_t cls = static_cast<size_t>(op.cls);
    if (op.contact || taken[cls] >= per_class) continue;
    ++taken[cls];
    sample.push_back(op);
  }
  Workload probe = workload;
  probe.mix.clear();
  for (size_t c = 0; c < kClasses; ++c) {
    probe.mix.push_back({static_cast<OpClass>(c), 1.0 / kClasses});
  }
  std::array<size_t, kClasses> probed{};
  for (const Op& op : GenerateOps(probe, data, seed, 20 * kProbesPerClass *
                                                         kClasses)) {
    const size_t cls = static_cast<size_t>(op.cls);
    if (taken[cls] > 0 || probed[cls] >= kProbesPerClass) continue;
    ++probed[cls];
    sample.push_back(op);
  }
  // Writes last: a ladder contact carries an age, which the oracle's age
  // classes do not expect.
  std::stable_partition(sample.begin(), sample.end(), [](const Op& op) {
    return op.cls != OpClass::kInsert;
  });

  LadderResult out;
  sim::Scheduler& scheduler = cluster.scheduler();
  pgrid::Overlay& overlay = cluster.overlay();
  std::vector<triple::Tuple> fresh;
  size_t inserts = 0;
  uint64_t trace_id = uint64_t{1} << 40;

  for (const Op& op : sample) {
    const size_t cls = static_cast<size_t>(op.cls);
    core::UniStore& node = cluster.node(op.via);
    ++trace_id;
    const uint64_t root =
        tracer.Begin(kLadderSpan[cls], trace_id, 0, scheduler.Now());
    auto span = [&](const char* name) {
      return tracer.Begin(name, trace_id, root, scheduler.Now());
    };

    if (op.cls == OpClass::kInsert) {
      if (fresh.empty()) {
        // Fresh OIDs, so a ladder write never overwrites a stream contact.
        fresh = core::GenerateContactTuples(sample.size(),
                                            seed ^ 0x1add3e5ull);
        for (size_t f = 0; f < fresh.size(); ++f) {
          fresh[f].oid = "ladder-contact-" + std::to_string(f);
        }
      }
      const triple::Tuple& tuple = fresh[inserts++];
      CallCost insert;
      const uint64_t s = span("core.insert_tuple");
      const Status status = Await<Status>(cluster, &insert, [&](auto done) {
        node.InsertTuple(tuple, std::move(done));
      });
      tracer.End(s, scheduler.Now());
      if (!status.ok()) ++out.wrong;
      AddCall(insert, insert.host_us, &out.insert);
      size_t postings = 0;
      for (const triple::Triple& t : triple::Decompose(tuple)) {
        postings += qgram::EntriesForTripleQGrams(
                        t, core::NodeOptions().qgram_q, /*version=*/1)
                        .size();
      }
      out.postings.Add(static_cast<double>(postings));
      tracer.End(root, scheduler.Now(), static_cast<int64_t>(postings));
      continue;
    }

    // Layer 1: the executor, from a fresh plan.
    Result<plan::PhysicalPlan> plan = node.PlanOnly(op.vql);
    if (!plan.ok()) {
      ++out.wrong;
      tracer.End(root, scheduler.Now());
      continue;
    }
    CallCost exec;
    uint64_t s = span("ladder.exec");
    Result<exec::QueryResult> result = Await<Result<exec::QueryResult>>(
        cluster, &exec,
        [&](auto done) { node.QueryPlan(*plan, std::move(done)); });
    const size_t rows = result.ok() ? result->rows.size() : 0;
    tracer.End(s, scheduler.Now(), static_cast<int64_t>(rows));
    if (!result.ok() || DigestOf(result->rows) != oracle.ExpectedDigest(op)) {
      ++out.wrong;
    }
    AddCall(exec, exec.host_us, &out.exec[cls]);
    const cost::Cost estimate = PlanEstimate(**plan);
    if (exec.msgs > 0) {
      out.msgs_error.Add(std::abs(estimate.messages - exec.msgs) / exec.msgs);
    }
    const double virtual_us = 1e3 * exec.virtual_ms;
    if (virtual_us > 0) {
      out.latency_error.Add(std::abs(estimate.latency_us - virtual_us) /
                            virtual_us);
    }

    if (op.cls != OpClass::kPoint && op.cls != OpClass::kExact &&
        op.cls != OpClass::kRange) {
      tracer.End(root, scheduler.Now(), static_cast<int64_t>(rows));
      continue;
    }
    out.rows += rows;
    const bool is_range = op.cls == OpClass::kRange;
    const triple::Value age = triple::Value::Int(static_cast<int64_t>(op.target));
    const triple::Value age_hi =
        triple::Value::Int(static_cast<int64_t>(op.target) + kRangeWidth - 1);
    const std::string oid =
        op.cls == OpClass::kPoint ? data.persons[op.target].oid : "";
    const pgrid::Key key = op.cls == OpClass::kPoint
                               ? triple::OidKey(oid)
                               : triple::AttrValueKey("age", age);
    const pgrid::KeyRange range = triple::AttrValueRange("age", age, age_hi);

    // Layer 2: the triple store on the same key.
    CallCost triple_call;
    s = span("ladder.triple");
    auto triples = Await<Result<std::vector<triple::Triple>>>(
        cluster, &triple_call, [&](auto done) {
          triple::TripleStore& store = node.store();
          if (op.cls == OpClass::kPoint) {
            store.GetByOid(oid, std::move(done));
          } else if (op.cls == OpClass::kExact) {
            store.GetByAttrValue("age", age, std::move(done));
          } else {
            store.GetByAttrRange("age", age, age_hi,
                                 triple::RangeStrategy::kShower,
                                 std::move(done));
          }
        });
    const size_t kept = triples.ok() ? triples->size() : 0;
    tracer.End(s, scheduler.Now(), static_cast<int64_t>(kept));
    out.triples_kept += kept;

    // Layer 3: pgrid routing on the same key or range.
    CallCost pgrid_call;
    s = span("ladder.pgrid");
    size_t entries = 0;
    if (is_range) {
      auto r = Await<Result<pgrid::RangeResult>>(
          cluster, &pgrid_call, [&](auto done) {
            node.peer()->RangeScanShower(range, std::move(done));
          });
      if (r.ok()) {
        entries = r->entries.size();
        out.range_peers.Add(r->peers_contacted);
      }
    } else {
      auto r = Await<Result<pgrid::LookupResult>>(
          cluster, &pgrid_call, [&](auto done) {
            node.peer()->Lookup(key, pgrid::LookupMode::kExact,
                                std::move(done));
          });
      if (r.ok()) {
        entries = r->entries.size();
        out.lookup_hops.Add(r->hops);
      }
    }
    tracer.End(s, scheduler.Now(), static_cast<int64_t>(entries));
    out.entries_seen += entries;

    // Layer 4: the owners' local stores, one replica per leaf path.
    std::vector<const pgrid::LocalStore*> owners;
    if (is_range) {
      std::set<std::string> paths;
      for (size_t p = 0; p < overlay.size(); ++p) {
        const pgrid::Peer* peer = overlay.peer(static_cast<net::PeerId>(p));
        if (range.IntersectsPrefix(peer->path(), pgrid::kKeyBits) &&
            paths.insert(peer->path().bits()).second) {
          owners.push_back(&peer->store());
        }
      }
    } else {
      const std::vector<net::PeerId> responsible = overlay.ResponsiblePeers(key);
      if (!responsible.empty()) {
        owners.push_back(&overlay.peer(responsible[0])->store());
      }
    }
    size_t visited = 0;
    auto count = [&visited](const pgrid::EntryView&) {
      ++visited;
      return true;
    };
    s = span("ladder.local_store");
    const int64_t scan0 = HostNs();
    for (const pgrid::LocalStore* store : owners) {
      if (is_range) {
        store->ScanRange(range, count);
      } else {
        store->ScanKey(key, count);
      }
    }
    const double scan_us = Micros(HostNs() - scan0);
    tracer.End(s, scheduler.Now(), static_cast<int64_t>(visited));
    out.scan_us.Add(scan_us);
    out.entries_visited += visited;

    // Self times: each layer minus the layer below on the same op.
    AddCall(triple_call, triple_call.host_us - pgrid_call.host_us,
            &out.triple[cls]);
    AddCall(pgrid_call, pgrid_call.host_us - scan_us,
            is_range ? &out.range : &out.lookup);
    tracer.End(root, scheduler.Now(), static_cast<int64_t>(rows));
  }
  return out;
}

}  // namespace e2e
}  // namespace bench
}  // namespace unistore
