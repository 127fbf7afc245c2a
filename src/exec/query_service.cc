#include "exec/query_service.h"

#include <cmath>
#include <set>

#include "common/logging.h"
#include "cost/cost_model.h"
#include "pgrid/ophash.h"
#include "triple/index.h"

namespace unistore {
namespace exec {

using net::Message;
using net::MessageType;

QueryService::QueryService(pgrid::Peer* peer, EnvelopeOptions options)
    : peer_(peer), options_(options) {
  peer_->SetExtensionHandler(
      MessageType::kPlanExec,
      [this](const Message& msg) { OnPlanExec(msg); });
  peer_->SetExtensionHandler(
      MessageType::kPlanExecReply,
      [this](const Message& msg) { OnEnvelopeReplyMessage(msg); });
  peer_->SetExtensionHandler(
      MessageType::kPlanExecPartial,
      [this](const Message& msg) { OnEnvelopeReplyMessage(msg); });
  peer_->SetExtensionHandler(
      MessageType::kStatsGossip,
      [this](const Message& msg) { OnStatsGossip(msg); });
}

void QueryService::OnPeerRestart() {
  // The coordinator state of every in-flight join died with the process.
  // Move the map out first: a callback may start a fresh join.
  auto runs = std::move(migrations_);
  migrations_.clear();
  const Status down =
      Status::Unavailable("peer ", peer_->id(), ": restarted mid-join");
  for (auto& [id, run] : runs) CancelTimers(run);
  for (auto& [id, run] : runs) {
    if (run.callback) run.callback(down);
  }
  contributions_.clear();
  merged_dirty_ = true;
  busy_until_ = 0;
  serving_queue_depth_ = 0;
}

// ---------------------------------------------------------------------------
// Initiator side: coordinator-driven batched walks
// ---------------------------------------------------------------------------

void QueryService::RunMigrateJoin(const vql::TriplePattern& pattern,
                                  std::vector<Binding> left,
                                  MigrateCallback callback) {
  if (pattern.predicate.is_variable ||
      !pattern.predicate.literal.is_string()) {
    callback(Status::InvalidArgument(
        "migrate join needs a literal attribute in the right pattern"));
    return;
  }
  const uint64_t id = next_request_id_++;
  auto [it, inserted] = migrations_.emplace(
      id,
      MigrateRun{
          EnvelopeCoordinator(
              peer_->id(), pattern,
              triple::AttrRange(pattern.predicate.literal.AsString()),
              std::move(left), options_,
              static_cast<uint32_t>(peer_->options().request_retries),
              pgrid::kKeyBits,
              /*walk_id_base=*/(static_cast<uint64_t>(peer_->id()) << 40) |
                  (id << 16),
              // Statistics-informed fan-out: split at the sampled peers'
              // region boundaries so branches follow the trie shape.
              catalog().peer_paths()),
          std::move(callback), sim::kNoEvent, {}, {}});
  (void)inserted;
  MigrateRun& run = it->second;
  run.walks.resize(run.coordinator.branch_count() *
                   run.coordinator.chunk_count());

  // Overall deadline: whatever the per-walk retries and overload
  // deferrals do, a Migrate join cannot outlive kMigrateDeadline. It
  // degrades instead of failing: still-uncovered walks are abandoned and
  // the rows gathered so far come back with explicit coverage gaps.
  run.deadline = peer_->transport()->scheduler()->ScheduleAfter(
      kMigrateDeadline, peer_->id(), [this, id]() {
        migrations_.find(id)->second.coordinator.AbandonIncomplete();
        CheckMigrationDone(id);
      });

  std::vector<EnvelopeReply> undeliverable;
  for (PlanEnvelope& env : run.coordinator.Launch()) {
    ArmWalkTimer(id, env.branch, env.chunk_id);
    if (auto error = TrySendEnvelope(std::move(env), id)) {
      undeliverable.push_back(std::move(*error));
    }
  }
  for (EnvelopeReply& error : undeliverable) {
    HandleEnvelopeReply(id, std::move(error), 0);
  }
}

std::optional<EnvelopeReply> QueryService::TrySendEnvelope(
    PlanEnvelope env, uint64_t request_id) {
  if (peer_->IsResponsible(env.remaining.lo)) {
    ServeEnvelope(std::move(env), request_id, 0);
    return std::nullopt;
  }
  Message msg;
  msg.type = MessageType::kPlanExec;
  msg.src = peer_->id();
  msg.request_id = request_id;
  msg.payload = env.Encode();
  if (peer_->Forward(msg, env.remaining.lo) == net::kNoPeer) {
    EnvelopeReply error;
    error.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
    error.error = "no route toward join partition";
    error.walk_id = env.walk_id;
    error.branch = env.branch;
    error.chunk_id = env.chunk_id;
    error.origin = peer_->id();
    return error;
  }
  return std::nullopt;
}

void QueryService::HandleEnvelopeReply(uint64_t request_id,
                                       EnvelopeReply reply,
                                       uint32_t msg_hops) {
  std::vector<EnvelopeReply> queue;
  queue.push_back(std::move(reply));
  while (!queue.empty()) {
    auto it = migrations_.find(request_id);
    if (it == migrations_.end()) return;
    EnvelopeReply next = std::move(queue.back());
    queue.pop_back();
    const uint32_t branch = next.branch;
    const uint32_t chunk = next.chunk_id;
    auto outcome = it->second.coordinator.OnReply(std::move(next), msg_hops);
    msg_hops = 0;  // Only the original message has a real hop count.
    if (outcome.progress) ArmWalkTimer(request_id, branch, chunk);
    if (outcome.relaunch_after_us > 0) {
      // Overload backoff: the serving peer shed the envelope, so hold the
      // relaunch for its retry-after horizon instead of hammering it. A
      // later deferral of the walk replaces this one: it relaunches from
      // a frontier at least as far.
      for (PlanEnvelope& env : outcome.relaunch) {
        ++deferred_relaunches_;
        peer_->transport()->CountRetry(kDeferRetryPolicy);
        sim::EventId& deferred = it->second.walk(branch, chunk).deferred;
        peer_->transport()->scheduler()->Cancel(deferred);
        deferred = peer_->transport()->scheduler()->ScheduleAfter(
            outcome.relaunch_after_us, peer_->id(),
            [this, request_id, env = std::move(env)]() mutable {
              if (auto error = TrySendEnvelope(std::move(env), request_id)) {
                HandleEnvelopeReply(request_id, std::move(*error), 0);
              }
            });
      }
      continue;
    }
    for (PlanEnvelope& env : outcome.relaunch) {
      peer_->transport()->CountRetry(kWalkRetryPolicy);
      if (auto error = TrySendEnvelope(std::move(env), request_id)) {
        queue.push_back(std::move(*error));
      }
    }
  }
  CheckMigrationDone(request_id);
}

void QueryService::ArmWalkTimer(uint64_t request_id, uint32_t branch,
                                uint32_t chunk) {
  sim::Scheduler* scheduler = peer_->transport()->scheduler();
  MigrateRun& run = migrations_.find(request_id)->second;
  WalkTimers& timers = run.walk(branch, chunk);
  scheduler->Cancel(timers.deadline);
  timers.deadline = sim::kNoEvent;
  if (run.coordinator.walk_done(branch, chunk)) {
    scheduler->Cancel(timers.deferred);
    return;
  }
  timers.deadline = scheduler->ScheduleAfter(
      peer_->options().request_timeout, peer_->id(),
      [this, request_id, branch, chunk]() {
        OnWalkTimer(request_id, branch, chunk);
      });
}

void QueryService::OnWalkTimer(uint64_t request_id, uint32_t branch,
                               uint32_t chunk) {
  auto outcome =
      migrations_.find(request_id)->second.coordinator.OnTimer(branch, chunk);
  using Action = EnvelopeCoordinator::TimerOutcome::Action;
  switch (outcome.action) {
    case Action::kIgnore:
      return;
    case Action::kRelaunch: {
      ArmWalkTimer(request_id, branch, chunk);
      peer_->transport()->CountRetry(kWalkRetryPolicy);
      if (auto error =
              TrySendEnvelope(std::move(outcome.envelope), request_id)) {
        HandleEnvelopeReply(request_id, std::move(*error), 0);
      }
      return;
    }
    case Action::kAbandon:
      // The walk was given up with a recorded gap; the join may be done.
      CheckMigrationDone(request_id);
      return;
  }
}

void QueryService::CancelTimers(const MigrateRun& run) {
  sim::Scheduler* scheduler = peer_->transport()->scheduler();
  scheduler->Cancel(run.deadline);
  for (const WalkTimers& timers : run.walks) {
    scheduler->Cancel(timers.deadline);
    scheduler->Cancel(timers.deferred);
  }
  for (sim::EventId reply : run.local_replies) scheduler->Cancel(reply);
}

void QueryService::CheckMigrationDone(uint64_t request_id) {
  auto it = migrations_.find(request_id);
  if (it == migrations_.end()) return;
  EnvelopeCoordinator& coordinator = it->second.coordinator;
  if (coordinator.done()) {
    FinishMigration(request_id, coordinator.TakeResult());
  }
}

void QueryService::FinishMigration(uint64_t request_id,
                                   Result<MigrateResult> result) {
  auto it = migrations_.find(request_id);
  if (it == migrations_.end()) return;
  CancelTimers(it->second);
  MigrateCallback callback = std::move(it->second.callback);
  migrations_.erase(it);
  callback(std::move(result));
}

// ---------------------------------------------------------------------------
// Server side: serving, forwarding, replying
// ---------------------------------------------------------------------------

void QueryService::OnPlanExec(const Message& msg) {
  auto env = PlanEnvelope::Decode(msg.payload);
  if (!env.ok()) return;
  if (!peer_->IsResponsible(env->remaining.lo)) {
    // Pure routing hop toward the next partition peer.
    if (peer_->Forward(msg, env->remaining.lo) == net::kNoPeer) {
      EnvelopeReply reply;
      reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
      reply.error = "envelope routing dead end at peer " +
                    std::to_string(peer_->id());
      reply.walk_id = env->walk_id;
      reply.branch = env->branch;
      reply.chunk_id = env->chunk_id;
      reply.origin = peer_->id();
      DeliverReply(env->initiator, msg.request_id, msg.hops, /*delay=*/0,
                   std::move(reply));
    }
    return;
  }
  ServeEnvelope(std::move(*env), msg.request_id, msg.hops);
}

void QueryService::ServeEnvelope(PlanEnvelope env, uint64_t request_id,
                                 uint32_t hops) {
  // Admission control (DESIGN.md §8): bounded serving queue on top of the
  // busy_until_ compute model. A full queue sheds the envelope with a
  // retry-after hint instead of queueing unboundedly — the coordinator
  // defers and relaunches, so overload degrades latency, never loses the
  // query.
  if (options_.admission_queue_depth > 0 &&
      serving_queue_depth_ >= options_.admission_queue_depth) {
    ++sheds_;
    const sim::SimTime now = peer_->transport()->scheduler()->Now();
    EnvelopeReply shed;
    shed.status_code = static_cast<uint8_t>(StatusCode::kOverloaded);
    shed.error = "peer " + std::to_string(peer_->id()) + " overloaded";
    shed.origin = peer_->id();
    shed.walk_id = env.walk_id;
    shed.branch = env.branch;
    shed.chunk_id = env.chunk_id;
    shed.retry_after_us = static_cast<uint32_t>(std::max<sim::SimTime>(
        busy_until_ > now ? busy_until_ - now : 0,
        static_cast<sim::SimTime>(options_.join_visit_cost_us)));
    DeliverReply(env.initiator, request_id, hops, /*delay=*/0,
                 std::move(shed));
    return;
  }

  ++envelopes_processed_;

  // Join local entries of the remaining range against the bindings. The
  // store scan visits entries in place (no materialized entry vector) and
  // each entry id decodes exactly once.
  const pgrid::Key serve_lo = env.remaining.lo;
  size_t local_triples = 0;
  std::vector<Binding> local_results;
  peer_->store().ScanRange(env.remaining, [&](const pgrid::EntryView& entry) {
    auto t = triple::DecodeEntryTriple(entry.id);
    if (!t.ok()) return true;  // Tolerate foreign entries in the range.
    ++local_triples;
    for (const Binding& b : env.bindings) {
      auto merged =
          MatchPattern(env.pattern, t->oid, t->attribute, t->value, b);
      if (!merged.has_value()) continue;
      local_results.push_back(std::move(*merged));
    }
    return true;
  });

  // Simulated local-join compute: serving serializes on this peer (the
  // single query executor), so a chunk convoy queues locally while it
  // pipelines across peers.
  sim::Scheduler* scheduler = peer_->transport()->scheduler();
  const sim::SimTime now = scheduler->Now();
  const sim::SimTime join_us = static_cast<sim::SimTime>(
      options_.join_visit_cost_us +
      cost::kJoinPairCostUs * static_cast<double>(local_triples) *
          static_cast<double>(env.bindings.size()));
  const sim::SimTime start = std::max(now, busy_until_);
  busy_until_ = start + join_us;
  const sim::SimTime finish_delay = busy_until_ - now;
  // This join occupies a queue slot until its simulated compute finishes.
  // A restart in between has already emptied the queue (OnPeerRestart),
  // so only the incarnation that took the slot releases it.
  ++serving_queue_depth_;
  scheduler->ScheduleAfter(
      finish_delay, peer_->id(),
      [this, incarnation = peer_->counters().restarts]() {
        if (incarnation == peer_->counters().restarts) --serving_queue_depth_;
      });

  // Walk on (identical structure to the sequential range scan): the next
  // subtree after this peer's, as long as the branch range extends past
  // this peer's region.
  const pgrid::Key subtree_max =
      peer_->path().PadTo(pgrid::kKeyBits, /*ones=*/true);
  bool more =
      env.remaining.hi.Compare(subtree_max) > 0 && !peer_->path().empty();
  const pgrid::Key covered_hi = more ? subtree_max : env.remaining.hi;
  bool stalled = false;
  if (more) {
    const pgrid::Key next_lo = subtree_max.Increment();
    if (next_lo.empty()) {
      more = false;
    } else {
      // The shrunk envelope leaves before the local join completes, so
      // network latency overlaps with local work.
      env.remaining.lo = next_lo;
      Message msg;
      msg.type = MessageType::kPlanExec;
      msg.src = peer_->id();
      msg.request_id = request_id;
      msg.hops = hops;
      msg.payload = env.Encode();
      stalled = peer_->Forward(msg, next_lo) == net::kNoPeer;
    }
  }

  const bool forward = more && !stalled;

  // This peer's results travel straight back; coverage is exactly this
  // peer's slice of the branch.
  EnvelopeReply reply;
  reply.kind = forward ? EnvelopeReply::Kind::kPartial
                       : EnvelopeReply::Kind::kTerminal;
  reply.origin = peer_->id();
  reply.walk_id = env.walk_id;
  reply.branch = env.branch;
  reply.chunk_id = env.chunk_id;
  reply.covered_lo = serve_lo;
  reply.covered_hi = covered_hi;
  reply.results = std::move(local_results);
  if (stalled) {
    reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
    reply.error =
        "envelope walk stalled at peer " + std::to_string(peer_->id());
  }

  DeliverReply(env.initiator, request_id, hops, finish_delay,
               std::move(reply));
}

void QueryService::DeliverReply(net::PeerId initiator, uint64_t request_id,
                                uint32_t hops, sim::SimTime delay,
                                EnvelopeReply reply) {
  const MessageType type = reply.kind == EnvelopeReply::Kind::kPartial
                               ? MessageType::kPlanExecPartial
                               : MessageType::kPlanExecReply;
  if (initiator == peer_->id()) {
    // Initiator-local: feed the coordinator directly (no self-send) once
    // the join time passes, unless the join ends first.
    auto it = migrations_.find(request_id);
    if (it == migrations_.end()) return;
    it->second.local_replies.push_back(
        peer_->transport()->scheduler()->ScheduleAfter(
            delay, peer_->id(),
            [this, request_id, hops, reply = std::move(reply)]() mutable {
              HandleEnvelopeReply(request_id, std::move(reply), hops);
            }));
    return;
  }
  if (delay <= 0) {
    peer_->rpc().ReplyTo(initiator, request_id, hops, type, reply.Encode());
    return;
  }
  peer_->transport()->scheduler()->ScheduleAfter(
      delay, peer_->id(),
      [this, initiator, request_id, hops, type,
       payload = reply.Encode()]() {
        peer_->rpc().ReplyTo(initiator, request_id, hops, type, payload);
      });
}

void QueryService::OnEnvelopeReplyMessage(const Message& msg) {
  auto reply = EnvelopeReply::Decode(msg.payload);
  if (!reply.ok()) {
    // Drop-and-retry keeps a transiently corrupted reply from failing the
    // join, but the root cause must not hide behind the eventual walk
    // timeout.
    UNISTORE_LOG(kWarning)
        << "peer " << peer_->id() << ": undecodable envelope reply from "
        << msg.src << " (request " << msg.request_id
        << "): " << reply.status().ToString();
    return;
  }
  HandleEnvelopeReply(msg.request_id, std::move(*reply), msg.hops);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

void QueryService::BuildLocalStats(double hop_latency_us) {
  cost::StatsCatalog fresh;
  fresh.network().peer_count =
      std::pow(2.0, static_cast<double>(peer_->path().size()));
  fresh.network().trie_depth =
      static_cast<double>(peer_->path().size());
  fresh.network().hop_latency_us = hop_latency_us;
  fresh.RecordPeerPath(peer_->path());

  struct Acc {
    uint64_t count = 0;
    std::set<std::string> distinct;
    double numeric_min = 0, numeric_max = 0;
    bool has_numeric = false;
    double strlen_sum = 0;
  };
  std::map<std::string, Acc> by_attr;
  peer_->store().ScanAllLive([&by_attr](const pgrid::EntryView& entry) {
    // Count each triple once: only its A#v index copy.
    if (entry.id.rfind("a#", 0) != 0) return true;
    auto t = triple::DecodeEntryTriple(entry.id);
    if (!t.ok()) return true;
    Acc& acc = by_attr[t->attribute];
    acc.count++;
    acc.distinct.insert(t->value.ToIndexString());
    if (t->value.is_number()) {
      double v = t->value.AsDouble();
      if (!acc.has_numeric || v < acc.numeric_min) acc.numeric_min = v;
      if (!acc.has_numeric || v > acc.numeric_max) acc.numeric_max = v;
      acc.has_numeric = true;
    } else if (t->value.is_string()) {
      acc.strlen_sum += static_cast<double>(t->value.AsString().size());
    }
    return true;
  });
  for (const auto& [attr, acc] : by_attr) {
    cost::AttrStats stats;
    stats.triple_count = acc.count;
    stats.distinct_values = acc.distinct.size();
    stats.numeric_min = acc.numeric_min;
    stats.numeric_max = acc.numeric_max;
    stats.has_numeric_range = acc.has_numeric;
    stats.avg_string_length =
        acc.count ? acc.strlen_sum / static_cast<double>(acc.count) : 0;
    fresh.RecordAttribute(attr, stats);
  }
  contributions_[peer_->id()] = std::move(fresh);
  merged_dirty_ = true;
}

const cost::StatsCatalog& QueryService::catalog() const {
  if (merged_dirty_) {
    merged_ = cost::StatsCatalog();
    for (const auto& [origin, contribution] : contributions_) {
      merged_.MergeContribution(contribution);
      merged_.network().hop_latency_us =
          contribution.network().hop_latency_us;
    }
    merged_dirty_ = false;
  }
  return merged_;
}

void QueryService::GossipStats(size_t fanout) {
  std::vector<net::PeerId> targets;
  for (size_t l = 0; l < peer_->routing().levels(); ++l) {
    for (net::PeerId p : peer_->routing().RefsAt(l)) targets.push_back(p);
  }
  for (net::PeerId p : peer_->routing().replicas()) targets.push_back(p);
  peer_->rng().Shuffle(&targets);
  // Gossip only the local contribution, tagged with our id; receivers
  // replace (not add) per origin so rounds never double-count.
  BufferWriter w;
  w.PutU32(peer_->id());
  auto self_it = contributions_.find(peer_->id());
  w.PutString(self_it == contributions_.end()
                  ? std::string()
                  : self_it->second.EncodeToString());
  std::string payload = w.Release();
  size_t sent = 0;
  std::set<net::PeerId> seen;
  for (net::PeerId target : targets) {
    if (sent >= fanout) break;
    if (target == peer_->id() || !seen.insert(target).second) continue;
    Message msg;
    msg.type = MessageType::kStatsGossip;
    msg.src = peer_->id();
    msg.dst = target;
    msg.payload = payload;
    peer_->transport()->Send(std::move(msg));
    ++sent;
  }
}

void QueryService::OnStatsGossip(const Message& msg) {
  BufferReader r(msg.payload);
  auto origin = r.GetU32();
  if (!origin.ok()) return;
  // View into msg.payload (alive for the whole handler): the catalog blob
  // decodes without an intermediate copy.
  auto body = r.GetStringView();
  if (!body.ok() || body->empty()) return;
  auto incoming = cost::StatsCatalog::DecodeFromString(*body);
  if (!incoming.ok()) return;
  contributions_[*origin] = std::move(*incoming);
  merged_dirty_ = true;
}

}  // namespace exec
}  // namespace unistore

