#include "net/transport.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace unistore {
namespace net {
namespace {

// FNV-1a: a portable, stable payload digest for delivery traces.
uint64_t HashPayload(const std::string& payload) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : payload) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

TrafficStats TrafficStats::Since(const TrafficStats& other) const {
  TrafficStats d;
  d.messages_sent = messages_sent - other.messages_sent;
  d.messages_delivered = messages_delivered - other.messages_delivered;
  d.messages_lost_random = messages_lost_random - other.messages_lost_random;
  d.messages_lost_partition =
      messages_lost_partition - other.messages_lost_partition;
  d.messages_lost_churn = messages_lost_churn - other.messages_lost_churn;
  d.messages_to_dead = messages_to_dead - other.messages_to_dead;
  d.messages_invalid = messages_invalid - other.messages_invalid;
  d.messages_duplicated = messages_duplicated - other.messages_duplicated;
  d.messages_corrupted = messages_corrupted - other.messages_corrupted;
  d.bytes_sent = bytes_sent - other.bytes_sent;
  for (const auto& [policy, count] : retries_by_policy) {
    auto it = other.retries_by_policy.find(policy);
    uint64_t base = (it == other.retries_by_policy.end()) ? 0 : it->second;
    if (count > base) d.retries_by_policy[policy] = count - base;
  }
  for (const auto& [type, count] : per_type) {
    auto it = other.per_type.find(type);
    uint64_t base = (it == other.per_type.end()) ? 0 : it->second;
    if (count > base) d.per_type[type] = count - base;
  }
  for (const auto& [type, bytes] : per_type_bytes) {
    auto it = other.per_type_bytes.find(type);
    uint64_t base = (it == other.per_type_bytes.end()) ? 0 : it->second;
    if (bytes > base) d.per_type_bytes[type] = bytes - base;
  }
  // Whole-history maximum, not an interval delta (see header).
  d.per_type_max_bytes = per_type_max_bytes;
  return d;
}

std::string TrafficStats::ToString() const {
  std::ostringstream os;
  os << "messages=" << messages_sent << " delivered=" << messages_delivered
     << " lost=" << messages_lost_random
     << " part_drop=" << messages_lost_partition
     << " churn_drop=" << messages_lost_churn
     << " to_dead=" << messages_to_dead << " invalid=" << messages_invalid
     << " dup=" << messages_duplicated << " corrupt=" << messages_corrupted
     << " bytes=" << bytes_sent;
  for (const auto& [policy, count] : retries_by_policy) {
    os << " retry[" << policy << "]=" << count;
  }
  for (const auto& [type, count] : per_type) {
    os << " " << MessageTypeName(type) << "=" << count;
  }
  return os.str();
}

Transport::Transport(sim::Scheduler* scheduler,
                     std::unique_ptr<sim::LatencyModel> latency,
                     uint64_t seed)
    : scheduler_(scheduler), latency_(std::move(latency)), seed_(seed) {
  UNISTORE_CHECK(scheduler_ != nullptr);
  UNISTORE_CHECK(latency_ != nullptr);
}

PeerId Transport::AddPeer(Handler handler) {
  const PeerId id = static_cast<PeerId>(handlers_.size());
  handlers_.push_back(std::move(handler));
  alive_.push_back(true);
  peer_rng_.push_back(Rng(Rng::StreamSeed(seed_, id)));
  trace_.emplace_back();
  return id;
}

void Transport::SetHandler(PeerId peer, Handler handler) {
  UNISTORE_CHECK(peer < handlers_.size());
  handlers_[peer] = std::move(handler);
}

void Transport::Send(Message msg) {
  if (msg.src >= handlers_.size() || msg.dst >= handlers_.size()) {
    stats_.messages_invalid++;
    UNISTORE_LOG(kWarning) << "dropping invalid send "
                           << MessageTypeName(msg.type) << " " << msg.src
                           << "->" << msg.dst << " (" << handlers_.size()
                           << " peers registered)";
    return;
  }

  stats_.messages_sent++;
  const uint64_t wire = msg.WireSize();
  stats_.bytes_sent += wire;
  stats_.per_type[msg.type]++;
  stats_.per_type_bytes[msg.type] += wire;
  uint64_t& max_slot = stats_.per_type_max_bytes[msg.type];
  if (wire > max_slot) max_slot = wire;

  // A down sender transmits nothing: a crashed process may still hold
  // armed timers whose handlers fire during its down window, but the
  // resulting sends die here. The window check is a pure function of
  // (Now, src), and it short-circuits before any RNG draw, so a down
  // sender never advances its stream.
  if (churn_plane_ != nullptr &&
      churn_plane_->Down(scheduler_->Now(), msg.src)) {
    stats_.messages_lost_churn++;
    return;
  }

  // All stochastic draws of this message come from the *source* peer's
  // stream: the draw sequence depends only on the src's own send history,
  // never on how sends of different peers interleave.
  Rng& rng = peer_rng_[msg.src];
  if (loss_probability_ > 0 && rng.NextBernoulli(loss_probability_)) {
    stats_.messages_lost_random++;
    return;
  }

  // Scripted link faults: activity is a pure function of (Now, src, dst)
  // and all draws come from the src stream, so the fault plane preserves
  // the determinism contract (DESIGN.md §10).
  FaultPlane::LinkEffects fx;
  if (fault_plane_ != nullptr) {
    fx = fault_plane_->Apply(scheduler_->Now(), msg.src, msg.dst, &rng);
  }
  if (fx.partitioned) {
    stats_.messages_lost_partition++;
    return;
  }
  if (fx.corrupt && !msg.payload.empty()) {
    // Garble the frame head: length prefixes, version sentinels and status
    // tags live in the first bytes of every codec, so decoders reject the
    // message and protocols fall back to their timeout/retry paths.
    stats_.messages_corrupted++;
    const size_t n = std::min<size_t>(4, msg.payload.size());
    for (size_t i = 0; i < n; ++i) {
      msg.payload[i] = static_cast<char>(msg.payload[i] ^ 0xFF);
    }
  }

  // Clamp to the model's floor, so even a zero-latency model never
  // delivers in the microsecond it sent. Fault-plane delay is strictly
  // additive above the clamp.
  sim::SimTime delay = std::max(latency_->Sample(msg.src, msg.dst, &rng),
                                latency_->MinLatency()) +
                       fx.extra_delay;
  const uint32_t src = msg.src;  // `msg` moves into the event below.
  if (fx.duplicate) {
    stats_.messages_duplicated++;
    sim::SimTime dup_delay = std::max(latency_->Sample(msg.src, msg.dst, &rng),
                                      latency_->MinLatency()) +
                             fx.extra_delay;
    Message copy = msg;
    scheduler_->ScheduleAfter(dup_delay, /*domain=*/src,
                              [this, m = std::move(copy)]() { Deliver(m); });
  }
  scheduler_->ScheduleAfter(delay, /*domain=*/src,
                            [this, m = std::move(msg)]() { Deliver(m); });
}

void Transport::Deliver(const Message& m) {
  if (!alive_[m.dst]) {
    stats_.messages_to_dead++;
    return;
  }
  if (churn_plane_ != nullptr &&
      churn_plane_->Down(scheduler_->Now(), m.dst)) {
    stats_.messages_lost_churn++;
    return;
  }
  stats_.messages_delivered++;
  if (trace_enabled_) {
    trace_[m.dst].push_back(DeliveryRecord{scheduler_->Now(), m.src, m.type,
                                           m.request_id, m.hops,
                                           HashPayload(m.payload)});
  }
  UNISTORE_LOG(kTrace) << "deliver " << MessageTypeName(m.type) << " "
                       << m.src << "->" << m.dst << " req=" << m.request_id
                       << " hops=" << m.hops;
  handlers_[m.dst](m);
}

void Transport::SetAlive(PeerId peer, bool alive) {
  UNISTORE_CHECK(peer < alive_.size());
  alive_[peer] = alive;
}

void Transport::SetFaultSchedule(FaultSchedule schedule) {
  fault_plane_ = schedule.empty()
                     ? nullptr
                     : std::make_unique<FaultPlane>(std::move(schedule));
}

void Transport::CountRetry(std::string_view policy) {
  stats_.retries_by_policy[std::string(policy)]++;
}

void Transport::SetChurnSchedule(ChurnSchedule schedule) {
  churn_plane_ = schedule.empty()
                     ? nullptr
                     : std::make_unique<ChurnPlane>(std::move(schedule));
}

bool Transport::IsAlive(PeerId peer) const {
  UNISTORE_CHECK(peer < alive_.size());
  if (!alive_[peer]) return false;
  return churn_plane_ == nullptr ||
         !churn_plane_->Down(scheduler_->Now(), peer);
}

void Transport::EnableDeliveryTrace() { trace_enabled_ = true; }

std::string Transport::DeliveryTrace() const {
  std::ostringstream os;
  for (size_t dst = 0; dst < trace_.size(); ++dst) {
    for (const DeliveryRecord& r : trace_[dst]) {
      os << "t=" << r.when << " " << r.src << "->" << dst << " "
         << MessageTypeName(r.type) << " req=" << r.request_id
         << " hops=" << r.hops << " payload=" << r.payload_hash << "\n";
    }
  }
  return os.str();
}

}  // namespace net
}  // namespace unistore
