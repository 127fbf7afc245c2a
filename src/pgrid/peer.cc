#include "pgrid/peer.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"

namespace unistore {
namespace pgrid {

using net::Message;
using net::MessageType;

namespace {

void NoopStatus(Status) {}

// Entries a scan visits. Streamed reply encoders need the varint count
// before the entry bytes, so serving scans twice: this counting pass is
// merge-advance only (none of the encode work), which keeps it much
// cheaper than single-pass alternatives that back-patch a variable-width
// count prefix into the buffer.
template <typename ScanFn>  // void(LocalStore::EntryVisitor)
uint64_t CountEntries(ScanFn&& scan) {
  uint64_t count = 0;
  scan([&count](const EntryView&) {
    ++count;
    return true;
  });
  return count;
}

// Matches entry ids against the suffixes of a lookup key: one hash of the
// id's tail per distinct suffix length, however many suffixes share it.
// The views alias the suffixes, which must outlive the matcher.
class SuffixMatcher {
 public:
  explicit SuffixMatcher(const std::vector<std::string>& suffixes) {
    for (const std::string& suffix : suffixes) {
      auto it = std::find_if(by_length_.begin(), by_length_.end(),
                             [&suffix](const auto& group) {
                               return group.first == suffix.size();
                             });
      if (it == by_length_.end()) {
        it = by_length_.insert(by_length_.end(), {suffix.size(), {}});
      }
      it->second.insert(suffix);
    }
  }

  // True when the key has no suffixes (it asks for every entry).
  bool all() const { return by_length_.empty(); }

  bool Matches(std::string_view id) const {
    for (const auto& [length, suffixes] : by_length_) {
      if (length <= id.size() &&
          suffixes.count(id.substr(id.size() - length)) > 0) {
        return true;
      }
    }
    return all();
  }

 private:
  std::vector<std::pair<size_t, std::unordered_set<std::string_view>>>
      by_length_;
};

// Visits the entries of `store` a lookup key asks for: those under `key`
// whose id `match` accepts.
void ScanAsked(const LocalStore& store, const Key& key,
               const SuffixMatcher& match, LocalStore::EntryVisitor visit) {
  if (match.all()) {
    store.ScanKey(key, visit);
    return;
  }
  store.ScanKey(key, [&match, &visit](const EntryView& e) {
    return !match.Matches(e.id) || visit(e);
  });
}

// The key of a routed key-set item (RouteKeySet's key_of).
const Key& KeyOf(const BatchKey& k) { return k.key; }
const Key& EntryKeyOf(const BatchEntry& e) { return e.entry.key; }

}  // namespace

Peer::Peer(net::Transport* transport, uint64_t rng_seed, PeerOptions options)
    : transport_(transport),
      id_(net::kNoPeer),
      options_(options),
      rng_(rng_seed),
      // A disk-backed store needs the peer id (per-peer data_dir), which
      // only exists after AddPeer below: start with a cheap default store
      // and build the real one in the body.
      store_(options.storage.backend == LocalStoreOptions::Backend::kDisk
                 ? LocalStoreOptions{}
                 : options.storage),
      rpc_(net::kNoPeer, transport) {
  id_ = transport_->AddPeer([this](const Message& msg) { OnMessage(msg); });
  // RpcManager was built before the id existed; rebuild in place.
  rpc_ = net::RpcManager(id_, transport_);
  rpc_.set_peer_observer(
      [this](PeerId peer, bool ok) { ObservePeer(peer, ok); });
  if (options_.storage.backend == LocalStoreOptions::Backend::kDisk) {
    store_ = LocalStore(ResolvedStorage());
  }
  if (options_.reprotect_period > 0 && options_.reprotect_until > 0) {
    ScheduleGuard();
  }
}

LocalStoreOptions Peer::ResolvedStorage() const {
  LocalStoreOptions storage = options_.storage;
  if (storage.backend == LocalStoreOptions::Backend::kDisk &&
      !storage.data_dir.empty()) {
    storage.data_dir += "/peer-" + std::to_string(id_);
  }
  return storage;
}

void Peer::SetPath(const Key& path) {
  path_ = path;
  routing_.ResetForPath(path.size());
  routing_.ClearReplicas();
}

void Peer::SetExtensionHandler(MessageType type, ExtensionHandler handler) {
  extensions_[type] = std::move(handler);
}

// ---------------------------------------------------------------------------
// Message pump & routing
// ---------------------------------------------------------------------------

void Peer::OnMessage(const Message& msg) {
  switch (msg.type) {
    case MessageType::kLookup:
      HandleKeySetLookup(msg);
      return;
    case MessageType::kLookupReply:
      // Only a lookup's replies name its keys.
      OnKeySetReply<LookupBatchReply>(
          msg, /*insert=*/false, [&msg](KeySetOp& op, LookupBatchReply& r) {
            for (LookupBatchReply::Answer& answer : r.answers) {
              if (!op.Finish(answer.slot)) continue;
              // Answers travel keyless: every entry is under the slot's key.
              for (Entry& e : answer.entries) e.key = op.keys[answer.slot].key;
              op.results[answer.slot] = {std::move(answer.entries), msg.hops};
            }
          });
      return;
    case MessageType::kBulkInsert:
      HandleBulkInsert(msg);
      return;
    case MessageType::kBulkInsertReply:
      // Only an insert's replies name its entries.
      OnKeySetReply<BulkInsertReply>(
          msg, /*insert=*/true, [](KeySetOp& op, BulkInsertReply& r) {
            for (uint32_t slot : r.stored) op.Finish(slot);
          });
      return;
    case MessageType::kRangeSeq:
      HandleRangeSeq(msg);
      return;
    case MessageType::kRangeShower:
      HandleRangeShower(msg);
      return;
    case MessageType::kExchange:
      HandleExchange(msg);
      return;
    case MessageType::kReplicaPush:
      HandleEntryBatch(msg);
      return;
    case MessageType::kManifestPull:
      HandleManifestPull(msg);
      return;
    case MessageType::kRunFetch:
      HandleRunFetch(msg);
      return;
    case MessageType::kReplicaProbe:
      HandleReplicaProbe(msg);
      return;
    case MessageType::kJoin:
      HandleJoin(msg);
      return;
    case MessageType::kRecruit:
      HandleRecruit(msg);
      return;
    case MessageType::kRefUpdate:
      HandleRefUpdate(msg);
      return;
    case MessageType::kRangeSeqReply: {
      auto reply = RangeSeqReply::Decode(msg.payload);
      if (reply.ok()) {
        OnScanPartial(msg.request_id, /*shower=*/false, reply->entries,
                      reply->status_code != 0, reply->will_forward);
      }
      return;
    }
    case MessageType::kRangeShowerReply: {
      auto reply = RangeShowerReply::Decode(msg.payload);
      if (reply.ok()) {
        OnScanPartial(msg.request_id, /*shower=*/true, reply->entries,
                      reply->unreachable > 0, reply->forwards);
      }
      return;
    }
    case MessageType::kExchangeReply:
    case MessageType::kManifestPullReply:
    case MessageType::kRunFetchReply:
    case MessageType::kReplicaProbeReply:
    case MessageType::kJoinReply:
    case MessageType::kRecruitReply:
      rpc_.HandleReply(msg);
      return;
    default: {
      auto it = extensions_.find(msg.type);
      if (it != extensions_.end()) {
        it->second(msg);
        return;
      }
      UNISTORE_LOG(kWarning) << "peer " << id_ << ": unhandled message type "
                             << MessageTypeName(msg.type);
    }
  }
}

PeerId Peer::NextHop(const Key& key) {
  if (IsResponsible(key)) return id_;
  size_t level = path_.CommonPrefixLength(key);
  UNISTORE_CHECK(level < path_.size());
  // Prefer references not under suspicion: one draw among the healthy
  // ones, in table order. With none suspected that is the plain draw, and
  // with all suspected the plain draw stays the fallback, so stale
  // suspicion never creates a routing dead end.
  const std::vector<PeerId>& refs = routing_.RefsAt(level);
  size_t healthy = refs.size();
  if (!suspects_.empty()) {
    for (PeerId ref : refs) healthy -= Suspected(ref) ? 1 : 0;
  }
  if (healthy == refs.size() || healthy == 0) {
    return routing_.RandomRefAt(level, &rng_);
  }
  size_t pick = rng_.NextBounded(healthy);
  for (PeerId ref : refs) {
    if (!Suspected(ref) && pick-- == 0) return ref;
  }
  return net::kNoPeer;  // Unreachable: `pick` < the healthy count.
}

PeerId Peer::Forward(const Message& msg, const Key& key) {
  // Greedy routing resolves at least one key bit per hop, so in a
  // consistent trie a route never needs more than kKeyBits hops. While
  // peers are mid-exchange (or mid-churn) their views can disagree and
  // form transient cycles; without this cap a request wanders the cycle
  // forever. Dropping past the cap turns the loop into a dead end the
  // initiator's bounded retry handles.
  if (msg.hops >= 2 * kKeyBits) return net::kNoPeer;
  PeerId next = NextHop(key);
  if (next == net::kNoPeer || next == id_) return net::kNoPeer;
  Message copy = msg;
  copy.src = id_;
  copy.dst = next;
  copy.hops = msg.hops + 1;
  transport_->Send(std::move(copy));
  return next;
}

template <typename Item, typename KeyOf>
Peer::KeySetRoute<Item> Peer::RouteKeySet(std::vector<Item> items,
                                          uint32_t hops, KeyOf key_of) {
  // One next hop per routing level: items that leave this peer's subtree
  // at the same level travel together instead of spreading over the
  // level's references.
  KeySetRoute<Item> route;
  std::map<size_t, PeerId> hop_at_level;
  for (Item& item : items) {
    const Key& key = key_of(item);
    if (IsResponsible(key)) {
      route.mine.push_back(std::move(item));
      continue;
    }
    // The hop cap of Forward: a transient routing cycle becomes a dead end.
    PeerId next = net::kNoPeer;
    if (hops < 2 * kKeyBits) {
      auto [it, first] =
          hop_at_level.try_emplace(path_.CommonPrefixLength(key));
      if (first) it->second = NextHop(key);
      next = it->second;
    }
    if (next == net::kNoPeer || next == id_) {
      route.dead_ends.push_back(std::move(item));
    } else {
      route.next[next].push_back(std::move(item));
    }
  }
  return route;
}

void Peer::SendRouted(MessageType type, PeerId next, uint64_t request_id,
                      uint32_t hops, std::string payload) {
  Message msg;
  msg.type = type;
  msg.src = id_;
  msg.dst = next;
  msg.request_id = request_id;
  msg.hops = hops + 1;
  msg.payload = std::move(payload);
  transport_->Send(std::move(msg));
}

// ---------------------------------------------------------------------------
// Retry & suspicion plumbing (common/retry_policy.h, DESIGN.md §10)
// ---------------------------------------------------------------------------

RetryPolicy Peer::RequestPolicy(std::string_view name) const {
  RetryPolicy p;
  p.name = name;
  p.max_retries = options_.request_retries;
  return p;
}

sim::SimTime Peer::NowUs() const { return transport_->scheduler()->Now(); }

void Peer::ArmTimer(sim::EventId* timer, sim::SimTime delay,
                    std::function<void()> fn) {
  transport_->scheduler()->Cancel(*timer);
  *timer = transport_->scheduler()->ScheduleAfter(delay, id_, std::move(fn));
}

void Peer::ObservePeer(PeerId peer, bool ok) {
  if (peer == id_) return;
  if (ok) {
    suspects_.erase(peer);
    return;
  }
  // A suspicion only ever ends by expiry or an answer, so recording one
  // drops the expired ones: the table holds at most the peers that failed
  // within the last kSuspicionTtl.
  const sim::SimTime now = NowUs();
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    it = it->second <= now ? suspects_.erase(it) : std::next(it);
  }
  suspects_[peer] = now + kSuspicionTtl;
}

bool Peer::Suspected(PeerId peer) const {
  auto it = suspects_.find(peer);
  return it != suspects_.end() && it->second > NowUs();
}

// ---------------------------------------------------------------------------
// Key-set operations: lookups and batch inserts (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Peer::StartKeySet(KeySetOp op) {
  const size_t size = op.is_insert() ? op.entries.size() : op.keys.size();
  op.slots.assign(size, SlotState::kPending);
  op.first_hops.assign(size, net::kNoPeer);
  op.missing = size;
  op.results.resize(op.keys.size());
  op.budget = RetryBudget(
      RequestPolicy(op.is_insert() ? kBulkRetryPolicy : kLookupRetryPolicy),
      NowUs());
  const uint64_t id = next_scan_id_++;
  key_set_ops_.emplace(id, std::move(op));
  SendKeySet(id);
}

void Peer::SendKeySet(uint64_t request_id) {
  KeySetOp& op = key_set_ops_.find(request_id)->second;
  op.backing_off = false;
  if (op.is_insert()) {
    SendInsertAttempt(request_id, op);
  } else {
    SendLookupAttempt(request_id, op);
  }
  SettleKeySet(request_id);
}

void Peer::SettleKeySet(uint64_t request_id) {
  auto it = key_set_ops_.find(request_id);
  KeySetOp& op = it->second;
  if (op.missing == 0) {
    transport_->scheduler()->Cancel(op.timer);
    KeySetOp done = std::move(op);
    key_set_ops_.erase(it);
    done.callback(std::move(done.results));
    return;
  }
  // A late reply during a backoff leaves it standing: the next attempt
  // resends every missing slot.
  if (op.backing_off) return;
  // Nothing is in flight once every missing slot hit a dead end.
  if (op.dead_ends == op.missing) {
    RetryKeySet(request_id);
    return;
  }
  // Replies are still due: the attempt waits request_timeout from its
  // start or its latest reply.
  ArmTimer(&op.timer, options_.request_timeout,
           [this, request_id]() { OnKeySetTimeout(request_id); });
}

void Peer::OnKeySetTimeout(uint64_t request_id) {
  // No reply named these slots: suspect where they were sent, and drop a
  // silent replica from the advert that steered a key to it.
  const KeySetOp& op = key_set_ops_.find(request_id)->second;
  for (size_t slot = 0; slot < op.slots.size(); ++slot) {
    if (op.slots[slot] == SlotState::kPending &&
        op.first_hops[slot] != net::kNoPeer) {
      ObservePeer(op.first_hops[slot], /*ok=*/false);
      advert_cache_.Forget(
          op.is_insert() ? op.entries[slot].key : op.keys[slot].key,
          op.first_hops[slot], NowUs());
    }
  }
  RetryKeySet(request_id);
}

void Peer::RetryKeySet(uint64_t request_id) {
  auto it = key_set_ops_.find(request_id);
  KeySetOp& op = it->second;
  transport_->scheduler()->Cancel(op.timer);
  for (SlotState& s : op.slots) {
    if (s == SlotState::kDeadEnd) s = SlotState::kPending;
  }
  std::fill(op.first_hops.begin(), op.first_hops.end(), net::kNoPeer);
  const size_t dead_ends = op.dead_ends;
  op.dead_ends = 0;
  if (!op.budget.Spend(NowUs())) {
    KeySetOp failed = std::move(op);
    key_set_ops_.erase(it);
    failed.callback(
        failed.is_insert()
            ? Status::Unavailable("peer ", id_, ": batch insert incomplete, ",
                                  failed.missing, " of ",
                                  failed.entries.size(), " entries unstored (",
                                  dead_ends, " dead ends)")
            : Status::Unavailable("peer ", id_, ": lookup incomplete, ",
                                  failed.missing, " of ", failed.keys.size(),
                                  " keys unanswered"));
    return;
  }
  transport_->CountRetry(op.budget.policy().name);
  op.backing_off = true;
  ArmTimer(&op.timer, op.budget.NextDelayUs(&rng_),
           [this, request_id]() { SendKeySet(request_id); });
}

template <typename Reply, typename FinishFn>
void Peer::OnKeySetReply(const Message& msg, bool insert, FinishFn finish) {
  auto it = key_set_ops_.find(msg.request_id);
  if (it == key_set_ops_.end()) return;  // Finished or failed.
  auto reply = Reply::Decode(msg.payload);
  // A corrupt frame head garbles the peer id; drop the whole reply.
  if (!reply.ok() || !KnownPeer(reply->peer)) return;
  KeySetOp& op = it->second;
  if (op.is_insert() != insert) return;
  ObservePeer(reply->peer, /*ok=*/true);
  if (!reply->advert.empty()) {
    advert_cache_.Learn(reply->advert.path, reply->advert.replicas,
                        reply->peer, NowUs());
  }
  // Slot states make duplicated replies (and duplicated forwards) no-ops;
  // late replies of an earlier attempt still finish their slots.
  finish(op, *reply);
  for (uint32_t slot : reply->dead_ends) op.DeadEnd(slot);
  SettleKeySet(msg.request_id);
}

// ---------------------------------------------------------------------------
// Lookup: a key-set lookup; a single-key Lookup is a set of one
// ---------------------------------------------------------------------------

void Peer::Lookup(const Key& key, LookupCallback callback) {
  KeySetOp op;
  op.keys.push_back({0, key, {}});
  op.callback = [callback = std::move(callback)](
                    Result<std::vector<LookupResult>> results) {
    if (!results.ok()) {
      callback(results.status());
      return;
    }
    callback(std::move(results->front()));
  };
  StartKeySet(std::move(op));
}

void Peer::LookupBatch(KeySuffixes keys, LookupBatchCallback callback) {
  KeySetOp op;
  std::vector<Key> order;
  order.reserve(keys.size());
  for (auto& [key, suffixes] : keys) {
    order.push_back(key);
    op.keys.push_back({static_cast<uint32_t>(op.keys.size()), key,
                       std::move(suffixes)});
  }
  op.callback = [order = std::move(order), callback = std::move(callback)](
                    Result<std::vector<LookupResult>> results) {
    if (!results.ok()) {
      callback(results.status());
      return;
    }
    LookupBatchResult out;
    for (size_t i = 0; i < order.size(); ++i) {
      out.emplace_hint(out.end(), order[i], std::move((*results)[i].entries));
    }
    callback(std::move(out));
  };
  StartKeySet(std::move(op));
}

void Peer::SendLookupAttempt(uint64_t request_id, KeySetOp& op) {
  std::vector<BatchKey> routed;
  std::vector<std::pair<PeerId, BatchKey>> redirected;
  for (uint32_t slot = 0; slot < op.slots.size(); ++slot) {
    if (op.slots[slot] == SlotState::kDone) continue;
    const BatchKey& k = op.keys[slot];
    // Replica-group fan-out: under a cached advert, skip greedy routing
    // and send the key to the next round-robin replica. Replicas share
    // the owner's path, so IsResponsible holds at the receiver; if the
    // replica died, the attempt's timeout drops it from the advert and
    // the retry goes elsewhere.
    const PeerId replica =
        IsResponsible(k.key)
            ? net::kNoPeer
            : PickHotReplica(advert_cache_.Find(k.key, NowUs()));
    if (replica != net::kNoPeer) {
      ++counters_.fanout_redirects;
      redirected.emplace_back(replica, k);
    } else {
      routed.push_back(k);
    }
  }
  KeySetRoute<BatchKey> route = RouteKeySet(std::move(routed), 0, KeyOf);
  for (auto& [replica, k] : redirected) {
    route.next[replica].push_back(std::move(k));
  }
  counters_.lookups_served += route.mine.size();
  for (const BatchKey& k : route.mine) {
    op.Finish(k.slot);
    std::vector<Entry>& entries = op.results[k.slot].entries;
    ScanAsked(store_, k.key, SuffixMatcher(k.suffixes),
              [&entries](const EntryView& e) {
                entries.push_back(e.ToEntry());
                return true;
              });
  }
  for (const BatchKey& k : route.dead_ends) op.DeadEnd(k.slot);
  for (const auto& [next, group] : route.next) {
    for (const BatchKey& k : group) op.first_hops[k.slot] = next;
  }
  ForwardLookup(std::move(route.next), id_, request_id, 0);
}

void Peer::ForwardLookup(std::map<PeerId, std::vector<BatchKey>> next,
                         PeerId initiator, uint64_t request_id,
                         uint32_t hops) {
  for (auto& [peer, keys] : next) {
    LookupBatchRequest sub;
    sub.initiator = initiator;
    sub.keys = std::move(keys);
    SendRouted(MessageType::kLookup, peer, request_id, hops, sub.Encode());
  }
}

PeerId Peer::PickHotReplica(AdvertCache::Advert* advert) {
  if (advert == nullptr) return net::kNoPeer;
  // Round-robin over the advertised group, skipping ourselves (keys this
  // peer is responsible for never get here: it serves them itself).
  for (size_t i = 0; i < advert->replicas.size(); ++i) {
    const PeerId candidate = advert->replicas[advert->next];
    advert->next = (advert->next + 1) % advert->replicas.size();
    // Suspected replicas (behind an unhealed partition) are skipped so
    // the fan-out doesn't burn a timeout per redirect; if every replica
    // is suspect the caller falls back to normal routing.
    if (candidate == id_ || candidate == net::kNoPeer ||
        advert->Dropped(candidate) || Suspected(candidate)) {
      continue;
    }
    return candidate;
  }
  return net::kNoPeer;
}

ReplicaAdvert Peer::GroupAdvert() const {
  ReplicaAdvert advert;
  if (routing_.replicas().empty()) return advert;
  // Every replica serves the path's keys, so the initiator sends later
  // keys under it one hop to the group.
  advert.path = path_;
  advert.replicas.push_back(id_);
  for (PeerId r : routing_.replicas()) {
    if (advert.replicas.size() >= kHotKeyMaxReplicas) break;
    advert.replicas.push_back(r);
  }
  // In id order, every member of a group sends the same list, so a
  // refresh keeps the initiator's round-robin cursor.
  std::sort(advert.replicas.begin(), advert.replicas.end());
  return advert;
}

void Peer::HandleKeySetLookup(const Message& msg) {
  auto req = LookupBatchRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  KeySetRoute<BatchKey> route =
      RouteKeySet(std::move(req->keys), msg.hops, KeyOf);
  ForwardLookup(std::move(route.next), req->initiator, msg.request_id,
                msg.hops);
  if (route.mine.empty() && route.dead_ends.empty()) return;
  LookupBatchReply reply;
  reply.peer = id_;
  for (const BatchKey& k : route.dead_ends) reply.dead_ends.push_back(k.slot);
  std::vector<uint32_t> slots;
  slots.reserve(route.mine.size());
  for (const BatchKey& k : route.mine) slots.push_back(k.slot);
  counters_.lookups_served += slots.size();
  if (!slots.empty()) {
    reply.advert = GroupAdvert();
    if (!reply.advert.empty()) ++counters_.hot_adverts;
  }
  // Zero-copy serving: per key, one counting scan sizes the varint prefix
  // and a second encodes the entries, keyless, straight into the reply
  // buffer. No intermediate std::vector<Entry>, no per-entry heap
  // allocation. Both scans skip the entries the key's suffixes do not ask
  // for.
  std::string payload = reply.EncodeStreamed(
      slots, [this, &route](size_t i, BufferWriter* w) {
        const BatchKey& k = route.mine[i];
        const SuffixMatcher match(k.suffixes);
        auto scan = [this, &k, &match](LocalStore::EntryVisitor v) {
          ScanAsked(store_, k.key, match, v);
        };
        EntryListWriter list(CountEntries(scan), w, /*keyless=*/true);
        scan([&list](const EntryView& e) {
          list.Add(e);
          return true;
        });
      });
  rpc_.ReplyTo(req->initiator, msg.request_id, msg.hops,
               MessageType::kLookupReply, std::move(payload));
}


// ---------------------------------------------------------------------------
// Insert / Remove / batch insert (DESIGN.md §6, §13)
// ---------------------------------------------------------------------------

void Peer::Insert(Entry entry, StatusCallback callback) {
  std::vector<Entry> batch;
  batch.push_back(std::move(entry));
  InsertBatch(std::move(batch), std::move(callback));
}

void Peer::Remove(const Key& key, const std::string& entry_id,
                  uint64_t version, StatusCallback callback) {
  Entry tombstone;
  tombstone.key = key;
  tombstone.id = entry_id;
  tombstone.version = version;
  tombstone.deleted = true;
  Insert(std::move(tombstone), std::move(callback));
}

void Peer::InsertBatch(std::vector<Entry> entries, StatusCallback callback) {
  if (entries.empty()) {
    callback(Status::OK());
    return;
  }
  KeySetOp op;
  op.entries = std::move(entries);
  op.callback = [callback = std::move(callback)](
                    Result<std::vector<LookupResult>> results) {
    callback(results.status());
  };
  StartKeySet(std::move(op));
}

void Peer::SendInsertAttempt(uint64_t request_id, KeySetOp& op) {
  std::vector<BatchEntry> routed;
  std::vector<std::pair<PeerId, BatchEntry>> redirected;
  // One replica per advert per attempt: the group's entries share one
  // message, and the replica push spreads them over the rest of the
  // group. A pick per key would split the batch across the group.
  std::map<AdvertCache::Advert*, PeerId> picked;
  for (uint32_t slot = 0; slot < op.slots.size(); ++slot) {
    if (op.slots[slot] == SlotState::kDone) continue;
    const Entry& entry = op.entries[slot];
    PeerId replica = net::kNoPeer;
    if (!IsResponsible(entry.key)) {
      AdvertCache::Advert* advert = advert_cache_.Find(entry.key, NowUs());
      if (advert != nullptr) {
        auto [it, first] = picked.try_emplace(advert, net::kNoPeer);
        if (first) it->second = PickHotReplica(advert);
        replica = it->second;
      }
    }
    if (replica != net::kNoPeer) {
      redirected.emplace_back(replica, BatchEntry{slot, entry});
    } else {
      routed.push_back({slot, entry});
    }
  }
  KeySetRoute<BatchEntry> route =
      RouteKeySet(std::move(routed), 0, EntryKeyOf);
  for (auto& [replica, e] : redirected) {
    route.next[replica].push_back(std::move(e));
  }
  for (const auto& [next, group] : route.next) {
    for (const BatchEntry& e : group) op.first_hops[e.slot] = next;
  }
  BulkInsertReply local;
  DispatchBulkInsert(std::move(route), id_, request_id, 0, &local);
  for (uint32_t slot : local.stored) op.Finish(slot);
  for (uint32_t slot : local.dead_ends) op.DeadEnd(slot);
}

void Peer::DispatchBulkInsert(KeySetRoute<BatchEntry> route,
                              PeerId initiator, uint64_t request_id,
                              uint32_t hops, BulkInsertReply* reply) {
  reply->peer = id_;
  if (!route.mine.empty()) {
    std::vector<Entry> mine;
    mine.reserve(route.mine.size());
    for (BatchEntry& e : route.mine) {
      reply->stored.push_back(e.slot);
      mine.push_back(std::move(e.entry));
    }
    StoreAndReplicate(std::move(mine));
  }
  for (const BatchEntry& e : route.dead_ends) {
    reply->dead_ends.push_back(e.slot);
  }
  for (auto& [next, group] : route.next) {
    // Sub-batches of at most chunk_bytes of uncoded entries, at least one
    // each: the chunks, and so the message count, do not depend on how
    // well the entries front-code.
    BulkInsertRequest sub;
    sub.initiator = initiator;
    size_t bytes = 0;
    for (BatchEntry& e : group) {
      const size_t size = e.entry.EncodedSize();
      if (!sub.entries.empty() && bytes + size > options_.chunk_bytes) {
        SendRouted(MessageType::kBulkInsert, next, request_id, hops,
                   sub.Encode());
        sub.entries.clear();
        bytes = 0;
      }
      bytes += size;
      sub.entries.push_back(std::move(e));
    }
    SendRouted(MessageType::kBulkInsert, next, request_id, hops,
               sub.Encode());
  }
}

void Peer::StoreAndReplicate(std::vector<Entry> entries) {
  // Replicate only effective mutations: a stale replica reroutes gossip
  // back here as a routed insert, and re-pushing an entry we already
  // hold would hand it straight back to that replica — an undamped
  // rumor cycle. Damping at the sink ends it in one hop.
  std::vector<Entry> changed;
  store_.Write(std::move(entries), &changed);
  PushBatchToReplicas(changed, /*informed=*/{});
}

void Peer::HandleBulkInsert(const Message& msg) {
  auto req = BulkInsertRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  BulkInsertReply reply;
  DispatchBulkInsert(RouteKeySet(std::move(req->entries), msg.hops,
                                 EntryKeyOf),
                     req->initiator, msg.request_id, msg.hops, &reply);
  if (reply.stored.empty() && reply.dead_ends.empty()) return;
  // Only a peer that stored entries advertises its group. One that was
  // sent entries on a stale advert and is no longer responsible routed
  // them on above, so a stale advert costs hops, never a write.
  if (!reply.stored.empty()) reply.advert = GroupAdvert();
  rpc_.ReplyTo(req->initiator, msg.request_id, msg.hops,
               MessageType::kBulkInsertReply, reply.Encode());
}


// ---------------------------------------------------------------------------
// Replica maintenance
// ---------------------------------------------------------------------------

void Peer::PushBatchToReplicas(const std::vector<Entry>& entries,
                               std::vector<PeerId> informed) {
  if (entries.empty()) return;
  auto is_informed = [&informed](PeerId p) {
    return std::find(informed.begin(), informed.end(), p) != informed.end();
  };
  if (!is_informed(id_)) informed.push_back(id_);
  // In a fully linked group the owner's push is thus the last message; a
  // receiver whose list names a member the sender did not know still
  // forwards to it.
  std::vector<PeerId> targets;
  for (PeerId r : routing_.replicas()) {
    if (!is_informed(r)) targets.push_back(r);
  }
  if (targets.empty()) return;
  rng_.Shuffle(&targets);
  targets.resize(std::min(options_.gossip_fanout, targets.size()));
  informed.insert(informed.end(), targets.begin(), targets.end());
  for (PeerId target : targets) {
    SendEntries(target, entries, /*reroute_if_foreign=*/false,
                /*gossip=*/true, informed);
  }
}

void Peer::SendEntries(PeerId dst, std::vector<Entry> entries,
                       bool reroute_if_foreign, bool gossip,
                       std::vector<PeerId> informed) {
  if (dst == id_ || entries.empty()) return;
  EntryBatch batch;
  batch.entries = std::move(entries);
  batch.reroute_if_foreign = reroute_if_foreign;
  batch.gossip = gossip;
  batch.informed = std::move(informed);
  Message msg;
  msg.type = MessageType::kReplicaPush;
  msg.src = id_;
  msg.dst = dst;
  msg.payload = batch.Encode();
  transport_->Send(std::move(msg));
}

void Peer::HandleEntryBatch(const Message& msg) {
  auto batch = EntryBatch::Decode(msg.payload);
  if (batch.ok()) StoreEntryBatch(std::move(*batch));
}

void Peer::StoreEntryBatch(EntryBatch batch) {
  std::vector<Entry> mine;
  std::vector<Entry> fresh;
  for (Entry& e : batch.entries) {
    // Gossip is addressed by a replica list that may be stale across
    // churn: a member that moved to another region (recruit adoption,
    // exchange migration) must route the rumor onward to the real owner,
    // never absorb foreign data into its new region.
    if ((batch.reroute_if_foreign || batch.gossip) &&
        !IsResponsible(e.key)) {
      // If the reroute dies (routing can dead-end while the trie is
      // mid-exchange), hold the entry here rather than lose it: a
      // misplaced copy is repairable by the next exchange migration,
      // a dropped acked write is not.
      InsertBatch({e}, [this, held = e](const Status& status) {
        if (!status.ok()) store_.Apply(held);
      });
      continue;
    }
    if (batch.gossip) {
      // Rumor spreading with damping: only freshly learned updates are
      // forwarded, and only to replicas outside the batch's informed
      // set, so the rumor dies once the replica group has it.
      if (store_.Apply(e)) fresh.push_back(std::move(e));
    } else {
      mine.push_back(std::move(e));
    }
  }
  // Non-gossip handoffs (exchange data migration) land as one bulk run
  // instead of per-entry memtable churn.
  if (!mine.empty()) store_.BulkLoad(std::move(mine));
  if (!fresh.empty()) PushBatchToReplicas(fresh, std::move(batch.informed));
}

// ---------------------------------------------------------------------------
// Replica repair: manifest-delta anti-entropy (DESIGN.md §9)
// ---------------------------------------------------------------------------
//
// Donor side is stateless: HandleManifestPull describes the run set,
// HandleRunFetch serves one bounded chunk of one run's entry stream. All
// transfer state (which runs are missing, the resume offset, the running
// checksum) lives at the repairer, so a donor crash mid-transfer costs
// nothing but the repairer's failover.

void Peer::HandleManifestPull(const Message& msg) {
  ManifestPullReply reply;
  reply.runs = store_.RunSummaries();
  reply.memtable_entries = store_.memtable_size();
  reply.donor_path = path_;
  rpc_.Reply(msg, MessageType::kManifestPullReply, reply.Encode());
}

void Peer::HandleRunFetch(const Message& msg) {
  auto req = RunFetchRequest::Decode(msg.payload);
  if (!req.ok()) return;

  RunFetchReply reply;
  reply.run_id = req->run_id;
  reply.start_entry = req->start_entry;

  uint64_t total = 0;
  bool exists = false;
  if (req->run_id == kMemtableRunId) {
    total = store_.memtable_size();
    exists = true;
  } else {
    RunSummary summary;
    // The run must still exist AND still hold the content the repairer
    // saw in the manifest — a compaction may have reused nothing but the
    // id is monotonic, so a matching id with a different checksum means
    // a stale manifest either way.
    exists = store_.RunSummaryById(req->run_id, &summary) &&
             summary.checksum == req->expected_checksum;
    total = summary.entry_count;
  }
  if (!exists) {
    reply.code = RunFetchReply::kGone;
    rpc_.Reply(msg, MessageType::kRunFetchReply, reply.Encode());
    return;
  }

  // One pass from the resume offset: entries append to the block until
  // the chunk budget is reached. The first entry always ships, so a
  // single entry larger than the budget cannot stall the transfer.
  const uint64_t budget = req->max_bytes > 0 ? req->max_bytes : 1;
  BufferWriter block;
  uint64_t shipped = 0;
  auto emit = [&](const EntryView& e) {
    if (shipped > 0 && block.size() + e.EncodedSize() > budget) return false;
    e.Encode(&block);
    ++shipped;
    return true;
  };
  if (req->run_id == kMemtableRunId) {
    store_.ScanMemtableFrom(req->start_entry, emit);
  } else {
    store_.ScanRunById(req->run_id, req->start_entry, emit);
  }

  reply.total_entries = total;
  reply.done = req->start_entry + shipped >= total;
  reply.block = block.Release();
  reply.chunk_crc = Crc32c(reply.block);
  rpc_.Reply(msg, MessageType::kRunFetchReply, reply.Encode());
}

void Peer::PullFromReplica(StatusCallback callback) {
  const auto& replicas = routing_.replicas();
  if (replicas.empty()) {
    callback(Status::NotFound("peer ", id_, ": no replicas to pull from"));
    return;
  }
  const uint64_t repair_id = next_repair_id_++;
  RepairState state;
  state.callback = std::move(callback);
  // The chunk budget folds both bounds of the repair into one RetryPolicy:
  // attempts reset per received chunk (transfer resume), while the
  // deadline is anchored here and survives donor failovers — the bound a
  // flapping replica set cannot escape.
  RetryPolicy policy = RequestPolicy(kRepairRetryPolicy);
  policy.max_retries = kRepairChunkRetries;
  policy.deadline_us = static_cast<uint64_t>(kRepairDeadline);
  state.chunk_budget = RetryBudget(policy, NowUs());
  state.candidates = replicas;
  // One shuffle from this peer's own stream fixes the whole failover
  // order up front: which donors get tried, and in which sequence, is a
  // deterministic function of (seed, peer, call count) — never of which
  // RPCs happen to time out first.
  rng_.Shuffle(&state.candidates);
  repairs_.emplace(repair_id, std::move(state));
  RepairTryNextCandidate(repair_id);
}

void Peer::RepairTryNextCandidate(uint64_t repair_id) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  RepairState& st = it->second;
  if (st.chunk_budget.DeadlinePassed(NowUs())) {
    FinishRepair(repair_id,
                 Status::Timeout("peer ", id_, ": replica repair exceeded ",
                                 kRepairDeadline,
                                 "us total deadline"));
    return;
  }
  if (st.donor != net::kNoPeer) ++counters_.repair_failovers;
  if (st.next_candidate >= st.candidates.size()) {
    FinishRepair(repair_id,
                 Status::Unavailable("peer ", id_, ": replica repair failed "
                                     "against all ", st.candidates.size(),
                                     " replicas"));
    return;
  }
  st.donor = st.candidates[st.next_candidate++];
  st.missing.clear();
  st.memtable_pending = false;
  st.pending.clear();
  st.manifest_restarts_left = 1;
  RepairPullManifest(repair_id);
}

void Peer::RepairPullManifest(uint64_t repair_id) {
  RepairState& st = repairs_.find(repair_id)->second;
  rpc_.SendRequest(
      st.donor, MessageType::kManifestPull, "", options_.request_timeout,
      [this, repair_id](const Status& status, const Message& msg) {
        auto it = repairs_.find(repair_id);
        if (it == repairs_.end()) return;
        if (!status.ok()) {
          RepairTryNextCandidate(repair_id);
          return;
        }
        auto manifest = ManifestPullReply::Decode(msg.payload);
        if (!manifest.ok()) {
          RepairTryNextCandidate(repair_id);
          return;
        }
        // A donor answering from a foreign region departed the group
        // after we snapshotted our candidate list (recruit, split,
        // migrate): absorbing its runs would graft another region's data
        // into this store. Unlink it and fail over.
        if (manifest->donor_path != path_) {
          routing_.RemoveReplica(it->second.donor);
          RepairTryNextCandidate(repair_id);
          return;
        }
        RepairOnManifest(repair_id, *manifest);
      });
}

void Peer::RepairOnManifest(uint64_t repair_id,
                            const ManifestPullReply& manifest) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  RepairState& st = it->second;
  // The delta: donor runs with no local run of identical content. Ids are
  // per-peer, so content — (entry count, checksum) — is the match key; a
  // multiset because duplicated batches legitimately produce equal runs.
  std::multiset<std::pair<uint64_t, uint32_t>> local;
  for (const RunSummary& run : store_.RunSummaries()) {
    local.insert({run.entry_count, run.checksum});
  }
  st.missing.clear();
  for (const RunSummary& run : manifest.runs) {
    auto match = local.find({run.entry_count, run.checksum});
    if (match != local.end()) {
      local.erase(match);
      ++counters_.repair_runs_matched;
    } else {
      st.missing.push_back(run);
    }
  }
  st.memtable_pending = manifest.memtable_entries > 0;
  RepairFetchNext(repair_id);
}

void Peer::RepairFetchNext(uint64_t repair_id) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  RepairState& st = it->second;
  if (!st.missing.empty()) {
    st.current = st.missing.front();
    st.missing.pop_front();
  } else if (st.memtable_pending) {
    // Fallback entry stream: the donor's memtable-resident slots have no
    // run file, so they ship as a chunked pseudo run (still bounded,
    // still resumable; no whole-run checksum — the memtable is mutable).
    st.memtable_pending = false;
    st.current = RunSummary{kMemtableRunId, 0, 0};
  } else {
    FinishRepair(repair_id, Status::OK());
    return;
  }
  st.next_entry = 0;
  st.crc = RunChecksum{};
  st.pending.clear();
  st.chunk_budget.ResetAttempts();
  RepairRequestChunk(repair_id);
}

void Peer::RepairRequestChunk(uint64_t repair_id) {
  RepairState& st = repairs_.find(repair_id)->second;
  RunFetchRequest req;
  req.run_id = st.current.run_id;
  req.expected_checksum =
      st.current.run_id == kMemtableRunId ? 0 : st.current.checksum;
  req.start_entry = st.next_entry;
  req.max_bytes = options_.chunk_bytes;
  rpc_.SendRequest(
      st.donor, MessageType::kRunFetch, req.Encode(),
      options_.request_timeout,
      [this, repair_id](const Status& status, const Message& msg) {
        auto it = repairs_.find(repair_id);
        if (it == repairs_.end()) return;
        if (!status.ok()) {
          // Resume, not restart: the retry re-requests the same offset,
          // so everything received before the loss stays received.
          RepairChunkRetry(repair_id);
          return;
        }
        auto chunk = RunFetchReply::Decode(msg.payload);
        if (!chunk.ok()) {
          RepairTryNextCandidate(repair_id);
          return;
        }
        RepairOnChunk(repair_id, *chunk);
      });
}

void Peer::RepairChunkRetry(uint64_t repair_id) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  RepairState& st = it->second;
  if (st.chunk_budget.Spend(NowUs())) {
    transport_->CountRetry(kRepairRetryPolicy);
    ArmTimer(&st.timer, st.chunk_budget.NextDelayUs(&rng_),
             [this, repair_id]() { RepairRequestChunk(repair_id); });
  } else {
    // Past the total deadline this surfaces the timeout, not a failover.
    RepairTryNextCandidate(repair_id);
  }
}

void Peer::RepairOnChunk(uint64_t repair_id, const RunFetchReply& chunk) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  RepairState& st = it->second;

  if (chunk.code == RunFetchReply::kGone) {
    // The donor compacted/reset this run away mid-repair. Its manifest is
    // stale, not its data: restart from a fresh manifest once before
    // giving up on the donor.
    if (st.manifest_restarts_left-- > 0) {
      st.missing.clear();
      st.memtable_pending = false;
      st.pending.clear();
      RepairPullManifest(repair_id);
    } else {
      RepairTryNextCandidate(repair_id);
    }
    return;
  }

  const bool frame_ok = chunk.run_id == st.current.run_id &&
                        chunk.start_entry == st.next_entry &&
                        Crc32c(chunk.block) == chunk.chunk_crc;
  uint64_t added = 0;
  if (frame_ok) {
    BufferReader r(chunk.block);
    while (r.remaining() > 0) {
      auto entry = Entry::Decode(&r);
      if (!entry.ok()) break;
      st.crc.Add(EntryView(*entry));
      st.pending.push_back(std::move(*entry));
      ++added;
    }
  }
  // An empty non-final chunk would re-request the same offset forever;
  // treat it like corruption.
  if (!frame_ok || (added == 0 && !chunk.done)) {
    RepairChunkRetry(repair_id);
    return;
  }

  ++counters_.repair_chunks_received;
  st.next_entry += added;
  st.chunk_budget.ResetAttempts();
  if (!chunk.done) {
    RepairRequestChunk(repair_id);
    return;
  }

  // Whole run received. Re-verify the run-level checksum before splicing
  // (per-chunk CRCs guard the frames; this guards against a donor whose
  // manifest lied or whose stream truncated). The memtable pseudo run is
  // mutable and carries no manifest checksum to verify against.
  if (st.current.run_id != kMemtableRunId) {
    if (st.pending.size() != st.current.entry_count ||
        st.crc.crc != st.current.checksum) {
      RepairTryNextCandidate(repair_id);
      return;
    }
    ++counters_.repair_runs_fetched;
  }
  // Known slots keep versioned-upsert semantics: a fetched entry never
  // overwrites a newer local write.
  store_.BulkLoad(std::move(st.pending));
  st.pending.clear();
  RepairFetchNext(repair_id);
}

void Peer::FinishRepair(uint64_t repair_id, Status status) {
  auto it = repairs_.find(repair_id);
  if (it == repairs_.end()) return;
  transport_->scheduler()->Cancel(it->second.timer);
  StatusCallback callback = std::move(it->second.callback);
  repairs_.erase(it);
  callback(std::move(status));
}

// ---------------------------------------------------------------------------
// Range scans: the initiator side of both strategies
// ---------------------------------------------------------------------------

void Peer::RangeScanSeq(const KeyRange& range, RangeCallback callback,
                        uint32_t limit) {
  StartScan(/*shower=*/false, range, std::move(callback), limit);
}

void Peer::RangeScanShower(const KeyRange& range, RangeCallback callback) {
  StartScan(/*shower=*/true, range, std::move(callback), /*limit=*/0);
}

void Peer::StartScan(bool shower, const KeyRange& range,
                     RangeCallback callback, uint32_t limit) {
  const uint64_t id = next_scan_id_++;
  ScanState& state = scans_[id];
  state.shower = shower;
  state.callback = std::move(callback);
  state.range = range;
  state.limit = limit;
  state.budget = RetryBudget(RequestPolicy(kRangeRetryPolicy), NowUs());
  SendScan(id);
}

void Peer::SendScan(uint64_t id) {
  ScanState& state = scans_.find(id)->second;
  ArmScanTimer(id, state);
  if (state.shower) {
    RangeShowerRequest req;
    req.initiator = id_;
    req.range = state.range;
    // The initiator is itself part of the trie: its own levels cover the
    // whole key space, so the shower starts right here.
    ProcessRangeShower(req, id, 0);
    return;
  }
  RangeSeqRequest req;
  req.initiator = id_;
  req.range = state.range;
  req.limit = state.limit;
  if (IsResponsible(req.range.lo)) {
    ProcessRangeSeq(req, id, 0);
    return;
  }
  Message msg;
  msg.type = MessageType::kRangeSeq;
  msg.src = id_;
  msg.dst = id_;
  msg.request_id = id;
  msg.payload = req.Encode();
  if (Forward(msg, req.range.lo) == net::kNoPeer) {
    FinishScan(id, /*complete=*/false);
  }
}

void Peer::OnScanPartial(uint64_t request_id, bool shower,
                         const std::vector<Entry>& entries, bool failed,
                         uint32_t forwards) {
  auto it = scans_.find(request_id);
  if (it == scans_.end() || it->second.shower != shower) return;
  ScanState& state = it->second;
  RangeResult& result = state.result;
  result.entries.insert(result.entries.end(), entries.begin(), entries.end());
  result.peers_contacted++;
  if (failed) result.complete = false;
  state.outstanding += forwards;
  state.outstanding -= 1;
  // A walk's failed leaf ends it at once: nothing follows it.
  if (state.outstanding == 0 || (failed && !shower)) {
    FinishScan(request_id, result.complete);
    return;
  }
  ArmScanTimer(request_id, state);
}

void Peer::ArmScanTimer(uint64_t id, ScanState& state) {
  ArmTimer(&state.timer, options_.request_timeout,
           [this, id]() { FinishScan(id, /*complete=*/false); });
}

void Peer::FinishScan(uint64_t request_id, bool complete) {
  auto it = scans_.find(request_id);
  ScanState state = std::move(it->second);
  scans_.erase(it);
  transport_->scheduler()->Cancel(state.timer);
  complete = complete && state.result.complete;
  if (!complete && state.budget.Spend(NowUs())) {
    transport_->CountRetry(kRangeRetryPolicy);
    // A fresh id with an empty result: late partials of the dead attempt
    // find no state and drop, so no branch is counted twice.
    state.result = RangeResult{};
    state.outstanding = 1;
    const uint64_t id = next_scan_id_++;
    const sim::SimTime delay = state.budget.NextDelayUs(&rng_);
    ScanState& next = scans_.emplace(id, std::move(state)).first->second;
    ArmTimer(&next.timer, delay, [this, id]() { SendScan(id); });
    return;
  }
  state.result.complete = complete;
  state.callback(std::move(state.result));
}

// ---------------------------------------------------------------------------
// Sequential range scan: the walk
// ---------------------------------------------------------------------------

void Peer::ProcessRangeSeq(const RangeSeqRequest& req, uint64_t request_id,
                           uint32_t hops) {
  RangeSeqReply reply;
  reply.peer_path = path_;

  // Under a limit, cap the local batch at the remaining budget. The scan
  // visits entries in key order, so stopping early preserves the
  // ordered-walk semantics (the smallest keys win) — and unlike the old
  // materialize-then-trim, entries past the budget are never even read.
  // OpHash keeps only kCharsPerKey characters, so the values under one key
  // are not in value order: the walk finishes the key its budget runs out
  // in. Entries under `range.lo` are not charged, since that key may hold
  // values below the caller's lower bound, which its filter drops.
  uint64_t budget = std::numeric_limits<uint64_t>::max();
  if (req.limit > 0) {
    budget = req.collected < req.limit ? req.limit - req.collected : 0;
  }
  uint64_t count = 0;    // Entries shipped.
  uint64_t charged = 0;  // Entries charged to the limit.
  if (budget > 0) {
    const Key& lo = req.range.lo;
    Key last_key;  // The key the budget ran out in.
    store_.ScanRange(req.range, [&](const EntryView& e) {
      if (charged == budget) {
        if (e.key != last_key) return false;
      } else if (e.key != lo && ++charged == budget) {
        last_key = e.key;
      }
      ++count;
      return true;
    });
  }

  const uint32_t collected_now =
      req.collected + static_cast<uint32_t>(charged);

  // Does the range extend beyond this peer's subtree?
  const Key subtree_max = path_.PadTo(kKeyBits, /*ones=*/true);
  bool more = req.range.hi.Compare(subtree_max) > 0 && !path_.empty();
  if (req.limit > 0 && collected_now >= req.limit) {
    more = false;  // Early termination: enough ordered entries collected.
  }
  if (more) {
    Key next_prefix = path_.Successor();
    if (next_prefix.empty()) {
      more = false;  // Right-most leaf.
    } else {
      Key next_lo = next_prefix.PadTo(kKeyBits, /*ones=*/false);
      RangeSeqRequest next = req;
      next.range.lo = next_lo;
      next.collected = collected_now;
      Message msg;
      msg.type = MessageType::kRangeSeq;
      msg.src = id_;
      msg.dst = id_;
      msg.request_id = request_id;
      // Each leg to the next leaf is a route of its own: the hop cap of
      // Forward bounds one leg, not the whole walk.
      msg.hops = 0;
      msg.payload = next.Encode();
      if (Forward(msg, next_lo) != net::kNoPeer) {
        reply.will_forward = true;
      } else {
        reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
        reply.error = "walk stalled at peer " + std::to_string(id_);
      }
    }
  }

  if (req.initiator == id_) {
    // Initiator-local partial: the struct is consumed directly, so the
    // entries must be materialized (they become the caller's result).
    reply.entries.reserve(count);
    if (count > 0) {
      store_.ScanRange(req.range, [&reply, count](const EntryView& e) {
        reply.entries.push_back(e.ToEntry());
        return reply.entries.size() < count;
      });
    }
    OnScanPartial(request_id, /*shower=*/false, reply.entries,
                  reply.status_code != 0, reply.will_forward);
    return;
  }
  // Remote partial: encode the scanned entries straight into the wire
  // buffer (byte-identical to the materialized encoding).
  std::string payload = reply.EncodeStreamed(
      count, [this, &req, count](EntryListWriter* list) {
        if (count == 0) return;
        uint64_t emitted = 0;
        store_.ScanRange(req.range,
                         [list, &emitted, count](const EntryView& e) {
                           list->Add(e);
                           return ++emitted < count;
                         });
      });
  rpc_.ReplyTo(req.initiator, request_id, hops, MessageType::kRangeSeqReply,
               std::move(payload));
}

void Peer::HandleRangeSeq(const Message& msg) {
  auto req = RangeSeqRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  if (IsResponsible(req->range.lo)) {
    ProcessRangeSeq(*req, msg.request_id, msg.hops);
    return;
  }
  if (Forward(msg, req->range.lo) == net::kNoPeer) {
    RangeSeqReply reply;
    reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
    reply.error = "routing dead end at peer " + std::to_string(id_);
    reply.peer_path = path_;
    DeliverSeqPartial(req->initiator, msg.request_id, msg.hops, reply);
  }
}

void Peer::DeliverSeqPartial(PeerId initiator, uint64_t request_id,
                             uint32_t hops, const RangeSeqReply& reply) {
  if (initiator == id_) {
    OnScanPartial(request_id, /*shower=*/false, reply.entries,
                  reply.status_code != 0, reply.will_forward);
    return;
  }
  rpc_.ReplyTo(initiator, request_id, hops, MessageType::kRangeSeqReply,
               reply.Encode());
}

// ---------------------------------------------------------------------------
// Parallel "shower" range scan
// ---------------------------------------------------------------------------

void Peer::ProcessRangeShower(const RangeShowerRequest& req,
                              uint64_t request_id, uint32_t hops) {
  RangeShowerReply reply;
  reply.peer_path = path_;

  // Guard against routing loops caused by stale tables mid-construction.
  const bool may_forward = hops < 2 * kKeyBits;

  for (size_t level = 0; level < path_.size(); ++level) {
    Key sibling = path_.Prefix(level).Child(!path_.bit(level));
    if (!req.range.IntersectsPrefix(sibling, kKeyBits)) continue;
    if (!may_forward) {
      reply.unreachable++;
      continue;
    }
    PeerId ref = routing_.RandomRefAt(level, &rng_);
    if (ref == net::kNoPeer) {
      reply.unreachable++;
      continue;
    }
    RangeShowerRequest sub = req;
    sub.range = req.range.ClampToPrefix(sibling, kKeyBits);
    SendRouted(MessageType::kRangeShower, ref, request_id, hops,
               sub.Encode());
    reply.forwards++;
  }

  const bool has_local = req.range.IntersectsPrefix(path_, kKeyBits);
  const KeyRange clamped =
      has_local ? req.range.ClampToPrefix(path_, kKeyBits) : KeyRange{};
  auto run_scan = [this, has_local, &clamped](LocalStore::EntryVisitor v) {
    if (has_local) store_.ScanRange(clamped, v);
  };
  const uint64_t count = CountEntries(run_scan);

  if (req.initiator == id_) {
    // Initiator-local branch result: consumed as a struct, materialize.
    reply.entries.reserve(count);
    run_scan([&reply](const EntryView& e) {
      reply.entries.push_back(e.ToEntry());
      return true;
    });
    OnScanPartial(request_id, /*shower=*/true, reply.entries,
                  reply.unreachable > 0, reply.forwards);
    return;
  }
  std::string payload =
      reply.EncodeStreamed(count, [&run_scan](EntryListWriter* list) {
        run_scan([list](const EntryView& e) {
          list->Add(e);
          return true;
        });
      });
  rpc_.ReplyTo(req.initiator, request_id, hops,
               MessageType::kRangeShowerReply, std::move(payload));
}

void Peer::HandleRangeShower(const Message& msg) {
  auto req = RangeShowerRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  ProcessRangeShower(*req, msg.request_id, msg.hops);
}

// ---------------------------------------------------------------------------
// Exchange (construction, refinement, load balancing)
// ---------------------------------------------------------------------------

RefsBlock Peer::SnapshotRefs() const {
  RefsBlock block;
  block.refs.resize(routing_.levels());
  for (size_t l = 0; l < routing_.levels(); ++l) {
    block.refs[l] = routing_.RefsAt(l);
  }
  return block;
}

bool Peer::KnownPeer(PeerId peer) const {
  // Corrupted payloads can decode into garbage peer ids; anything outside
  // the transport registry must never enter routing state (it would evict
  // a live reference, be probed forever, and never answer).
  return peer != net::kNoPeer &&
         static_cast<size_t>(peer) < transport_->peer_count();
}

void Peer::MergeRefs(const RefsBlock& refs, const Key& sender_path) {
  for (size_t l = 0; l < refs.refs.size(); ++l) {
    // A sender ref at level l points into the subtree
    // sender_path[0..l-1] + !sender_path[l]; it is usable at our level l
    // iff our path agrees with the sender's on bits [0..l].
    if (l >= path_.size() || l >= sender_path.size()) break;
    if (path_.CommonPrefixLength(sender_path) <= l) break;
    for (PeerId p : refs.refs[l]) {
      if (p != id_ && KnownPeer(p)) routing_.AddRef(l, p, &rng_);
    }
  }
}

void Peer::AddPeerByPath(PeerId peer, const Key& peer_path) {
  if (peer == id_) return;
  if (peer_path == path_) {
    routing_.AddReplica(peer);
    return;
  }
  size_t l = path_.CommonPrefixLength(peer_path);
  if (l < path_.size() && l < peer_path.size()) {
    routing_.AddRef(l, peer, &rng_);
  }
  // A proper-prefix relationship cannot be represented in the table; a
  // later exchange resolves it.
}

std::vector<Entry> Peer::SplitRegion(bool bit, PeerId other) {
  const size_t split_level = path_.size();
  path_ = path_.Child(bit);
  routing_.ExtendTo(path_.size());
  routing_.ClearReplicas();
  routing_.AddRef(split_level, other, &rng_);
  return store_.ExtractNotMatching(path_);
}

std::vector<Entry> Peer::LeaveGroup() {
  const std::vector<PeerId> old_replicas = routing_.replicas();
  std::vector<Entry> old_entries = store_.GetAll();
  store_.Clear();
  if (old_entries.empty() || old_replicas.empty()) return old_entries;
  const PeerId heir = old_replicas[rng_.NextBounded(old_replicas.size())];
  SendEntries(heir, std::move(old_entries), /*reroute_if_foreign=*/false,
              /*gossip=*/true, /*informed=*/{id_, heir});
  return {};
}

void Peer::InitiateExchange(PeerId other, StatusCallback callback) {
  DoInitiateExchange(other, kExchangeTtl, std::move(callback));
}

void Peer::DoInitiateExchange(PeerId other, uint32_t ttl,
                              StatusCallback callback) {
  if (exchange_busy_) {
    callback(Status::Unavailable("peer ", id_, ": exchange in progress"));
    return;
  }
  if (other == id_) {
    callback(Status::InvalidArgument("cannot exchange with self"));
    return;
  }
  exchange_busy_ = true;

  ExchangeRequest req;
  req.initiator = id_;
  req.path = path_;
  req.live_size = store_.live_size();
  req.replica_count = static_cast<uint32_t>(routing_.replicas().size());
  req.ttl = ttl;
  req.refs = SnapshotRefs();

  rpc_.SendRequest(
      other, MessageType::kExchange, req.Encode(), options_.request_timeout,
      [this, ttl, callback](const Status& status, const Message& msg) {
        exchange_busy_ = false;
        if (!status.ok()) {
          callback(status);
          return;
        }
        auto reply = ExchangeReply::Decode(msg.payload);
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        if (reply->action == ExchangeAction::kBusy) {
          callback(Status::Unavailable("exchange partner busy"));
          return;
        }
        PeerId responder = msg.src;
        ApplyExchangeReply(&*reply, responder);

        // Recursive refinement: meet one of the partner's contacts.
        if (ttl > 0) {
          std::vector<PeerId> candidates;
          for (const auto& level : reply->refs.refs) {
            for (PeerId p : level) {
              if (p != id_) candidates.push_back(p);
            }
          }
          if (!candidates.empty()) {
            PeerId next = candidates[rng_.NextBounded(candidates.size())];
            transport_->scheduler()->ScheduleAfter(
                1000, id_, [this, next, ttl]() {
                  DoInitiateExchange(next, ttl - 1, NoopStatus);
                });
          }
        }
        callback(Status::OK());
      });
}

void Peer::HandleExchange(const Message& msg) {
  auto req = ExchangeRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  if (exchange_busy_) {
    ExchangeReply busy;
    busy.action = ExchangeAction::kBusy;
    busy.responder_path = path_;
    rpc_.Reply(msg, MessageType::kExchangeReply, busy.Encode());
    return;
  }
  ExchangeReply reply = DecideExchange(*req);
  MergeRefs(req->refs, req->path);
  rpc_.Reply(msg, MessageType::kExchangeReply, reply.Encode());
}

ExchangeReply Peer::DecideExchange(const ExchangeRequest& req) {
  const Key& a_path = req.path;
  const size_t la = a_path.size();
  const size_t lb = path_.size();
  const size_t l = a_path.CommonPrefixLength(path_);
  const PeerId a = req.initiator;

  ExchangeReply reply;
  reply.refs = SnapshotRefs();

  if (la == lb && l == la) {
    // Equal paths.
    const uint64_t combined = req.live_size + store_.live_size();
    if (combined > options_.split_threshold && lb < kKeyBits) {
      // Split: initiator takes the '0' side, we take the '1' side.
      reply.action = ExchangeAction::kSplit;
      reply.new_initiator_path = a_path.Child(false);
      reply.entries = SplitRegion(true, a);
    } else {
      routing_.AddReplica(a);
      reply.action = ExchangeAction::kReplicate;
      reply.entries = store_.GetAll();
    }
  } else if (l == la && la < lb) {
    // Initiator's path is a proper prefix of ours: it specializes into the
    // sibling of our next bit.
    const bool our_bit = path_.bit(la);
    reply.action = ExchangeAction::kSpecialize;
    reply.new_initiator_path = a_path.Child(!our_bit);
    routing_.AddRef(la, a, &rng_);
  } else if (l == lb && lb < la) {
    // Our path is a proper prefix of the initiator's: we specialize.
    reply.action = ExchangeAction::kNone;
    reply.entries = SplitRegion(!a_path.bit(lb), a);
  } else {
    // Paths diverge at level l < min(la, lb).
    const bool we_are_overloaded =
        store_.live_size() >
        kBalanceFactor * static_cast<double>(req.live_size + 1);
    if (we_are_overloaded && lb < kKeyBits && req.replica_count > 0) {
      // Storage balancing [Aberer VLDB'05]: the underloaded initiator
      // migrates under our overloaded region and takes half of it. Its old
      // data stays with its replicas.
      reply.action = ExchangeAction::kMigrateSplit;
      reply.new_initiator_path = path_.Child(false);
      reply.entries = SplitRegion(true, a);
    } else {
      routing_.AddRef(l, a, &rng_);
      reply.action = ExchangeAction::kNone;
    }
  }
  reply.responder_path = path_;
  reply.responder_size = store_.live_size();
  return reply;
}

void Peer::ApplyExchangeReply(ExchangeReply* reply, PeerId responder) {
  switch (reply->action) {
    case ExchangeAction::kNone:
      break;
    case ExchangeAction::kBusy:
      return;
    case ExchangeAction::kReplicate: {
      routing_.AddReplica(responder);
      // Symmetric sync: ship our state back so both replicas converge.
      SendEntries(responder, store_.GetAll(), /*reroute_if_foreign=*/false,
                  /*gossip=*/false);
      break;
    }
    case ExchangeAction::kSplit:
    case ExchangeAction::kSpecialize: {
      const Key& new_path = reply->new_initiator_path;
      UNISTORE_CHECK(path_.IsPrefixOf(new_path))
          << "exchange produced non-extension path";
      path_ = new_path;
      routing_.ExtendTo(path_.size());
      routing_.ClearReplicas();
      std::vector<Entry> foreign = store_.ExtractNotMatching(path_);
      if (!foreign.empty()) {
        SendEntries(responder, std::move(foreign),
                    /*reroute_if_foreign=*/true, /*gossip=*/false);
      }
      break;
    }
    case ExchangeAction::kMigrateSplit:
      // Hand everything we hold to a replica of our old region (the
      // responder reroutes it when there is none), then move.
      SendEntries(responder, LeaveGroup(), /*reroute_if_foreign=*/true,
                  /*gossip=*/false);
      SetPath(reply->new_initiator_path);
      break;
  }

  MergeRefs(reply->refs, reply->responder_path);
  AddPeerByPath(responder, reply->responder_path);
  // The handoff takes the same path as a migrated batch: entries outside
  // the new path are rerouted, and kept here if the reroute fails.
  EntryBatch handoff;
  handoff.entries = std::move(reply->entries);
  handoff.reroute_if_foreign = true;
  StoreEntryBatch(std::move(handoff));
}

// ---------------------------------------------------------------------------
// Peer lifecycle & replica re-protection (DESIGN.md §11)
// ---------------------------------------------------------------------------
//
// All lifecycle protocol work runs as events of this peer's own domain and
// touches only peer-local state, like every other protocol. Liveness
// itself (who is down when) lives in the churn plane, a pure function of
// virtual time evaluated by the transport; the code here only reacts to
// its edges.

void Peer::FailInFlight(const Status& status) {
  // Move the maps out first: the callbacks may start fresh operations
  // (retries) that re-insert, and those must survive.
  // Walks fail before showers.
  auto scans = std::move(scans_);
  scans_.clear();
  for (auto& [id, st] : scans) transport_->scheduler()->Cancel(st.timer);
  for (bool shower : {false, true}) {
    for (auto& [id, st] : scans) {
      if (st.shower == shower && st.callback) st.callback(status);
    }
  }
  auto key_sets = std::move(key_set_ops_);
  key_set_ops_.clear();
  for (auto& [id, st] : key_sets) {
    transport_->scheduler()->Cancel(st.timer);
    if (st.callback) st.callback(status);
  }
  auto repairs = std::move(repairs_);
  repairs_.clear();
  for (auto& [id, st] : repairs) {
    transport_->scheduler()->Cancel(st.timer);
    if (st.callback) st.callback(status);
  }
}

void Peer::Restart(StatusCallback on_catchup) {
  ++counters_.restarts;
  const sim::SimTime started = NowUs();
  if (restart_hook_) restart_hook_();

  // The process lost its volatile state: every in-flight initiator-side
  // operation dies. Operation maps drain before the RPC table so that a
  // pending RPC's error callback finds no stale per-op state to resume.
  const Status down = Status::Unavailable("peer ", id_, ": restarted");
  FailInFlight(down);
  rpc_.FailAll(down);
  advert_cache_.Clear();
  suspects_.clear();
  probe_failures_.clear();
  exchange_busy_ = false;
  recruit_inflight_ = false;

  // Rebuild the store from the resolved backend: a disk peer re-opens its
  // per-peer data_dir and replays the flush manifest (crash recovery,
  // DESIGN.md §6); a memory peer comes back empty. Identity — id, path,
  // routing table — survives the crash: the peer re-registers as itself.
  store_ = LocalStore(ResolvedStorage());

  const std::vector<PeerId> replicas = routing_.replicas();
  if (replicas.empty()) {
    if (on_catchup) on_catchup(Status::OK());
    return;
  }
  // Re-announce to the old replica group (a probe whose matching path
  // makes each receiver re-link us) and catch up on everything written
  // while we were down via manifest-delta repair.
  for (PeerId r : replicas) SendProbe(r);
  PullFromReplica(
      [this, started, cb = std::move(on_catchup)](Status status) {
        if (status.ok()) counters_.last_restart_catchup_us = NowUs() - started;
        if (cb) cb(std::move(status));
      });
}

void Peer::GracefulLeave() {
  ++counters_.leaves_completed;
  const std::vector<PeerId>& replicas = routing_.replicas();
  if (replicas.empty()) return;
  std::vector<Entry> all = store_.GetAll();
  if (all.empty()) return;
  counters_.handoff_entries += all.size();
  // Full-state handoff to every replica (gossip mode: receivers apply
  // only what they do not already hold and damp the rumor) — covers the
  // memtable delta a crash would have stranded until anti-entropy. The
  // whole group is named as informed, so receivers do not re-forward the
  // handoff to each other.
  std::vector<PeerId> informed = replicas;
  informed.push_back(id_);
  for (PeerId r : replicas) {
    SendEntries(r, all, /*reroute_if_foreign=*/false, /*gossip=*/true,
                informed);
  }
}

void Peer::JoinVia(PeerId sponsor, StatusCallback callback) {
  JoinRequest req;
  req.initiator = id_;
  rpc_.SendRequest(
      sponsor, MessageType::kJoin, req.Encode(), options_.request_timeout,
      [this, sponsor, callback](const Status& status, const Message& msg) {
        if (!status.ok()) {
          callback(status);
          return;
        }
        auto reply = JoinReply::Decode(msg.payload);
        if (!reply.ok()) {
          callback(reply.status());
          return;
        }
        if (!reply->accepted) {
          callback(Status::Unavailable("peer ", id_, ": join sponsor ",
                                       sponsor, " declined"));
          return;
        }
        const Key& sponsor_path = reply->sponsor_path;
        if (reply->split) {
          // We take one half of the sponsor's old region; its live
          // entries arrived inline, so no catch-up pull is needed. SetPath
          // clears the replica list: a region move invalidates the old
          // group (stale members would poison repair donor selection and
          // rumor pushes).
          SetPath(reply->new_path);
          AddPeerByPath(sponsor, sponsor_path);
          MergeRefs(reply->refs, sponsor_path);
          if (!reply->entries.empty()) {
            store_.BulkLoad(std::move(reply->entries));
          }
          ++counters_.joins_completed;
          callback(Status::OK());
          return;
        }
        // Adoption: copy the sponsor's path, link its group, then pull
        // the region's data through manifest-delta repair. Any old group
        // is invalid after the move (see the split branch).
        SetPath(sponsor_path);
        for (PeerId p : reply->replicas) {
          if (p != id_ && KnownPeer(p)) routing_.AddReplica(p);
        }
        MergeRefs(reply->refs, sponsor_path);
        PullFromReplica([this, callback](Status pull) {
          if (pull.ok()) ++counters_.joins_completed;
          callback(std::move(pull));
        });
      });
}

void Peer::HandleJoin(const Message& msg) {
  auto req = JoinRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  JoinReply reply;
  // A sponsor mid-exchange declines (its path may be about to move); the
  // harness retries against another sponsor.
  if (!exchange_busy_) {
    if (store_.live_size() > options_.split_threshold &&
        path_.size() < kKeyBits) {
      // Split the region: the joiner takes the '0' half (entries inline),
      // we keep the '1' half — the same move DecideExchange makes for two
      // equal-path peers over threshold.
      reply.accepted = true;
      reply.split = true;
      reply.new_path = path_.Child(false);
      reply.entries = SplitRegion(true, req->initiator);
    } else {
      // Adopt as replica: the group (us included) goes in the reply, and
      // existing members learn of the joiner through membership gossip.
      routing_.AddReplica(req->initiator);
      reply.accepted = true;
      reply.split = false;
      reply.replicas = routing_.replicas();
      reply.replicas.push_back(id_);
      AnnounceRef(req->initiator, path_);
    }
    reply.refs = SnapshotRefs();
    reply.sponsor_path = path_;
  }
  rpc_.Reply(msg, MessageType::kJoinReply, reply.Encode());
}

void Peer::ScheduleGuard() {
  transport_->scheduler()->ScheduleAfter(options_.reprotect_period, id_,
                                         [this]() { GuardTick(); });
}

void Peer::GuardTick() {
  if (NowUs() >= options_.reprotect_until) return;  // Horizon: stop.
  ScheduleGuard();
  // A down peer keeps its timer armed (rescheduling is peer-local) but
  // runs no protocol: a crashed process must not probe, and its sends
  // would be churn-dropped anyway. Pathless peers have nothing to guard.
  if (!transport_->IsAlive(id_) || path_.size() == 0) return;
  for (PeerId r : routing_.replicas()) SendProbe(r);
  MaybeRecruit();
}

void Peer::SendProbe(PeerId replica) {
  ReplicaProbeRequest req;
  req.initiator = id_;
  req.path = path_;
  rpc_.SendRequest(
      replica, MessageType::kReplicaProbe, req.Encode(),
      options_.request_timeout,
      [this, replica](const Status& status, const Message& msg) {
        if (!status.ok()) {
          OnProbeFailure(replica);
          return;
        }
        auto reply = ReplicaProbeReply::Decode(msg.payload);
        if (!reply.ok()) {
          OnProbeFailure(replica);
          return;
        }
        probe_failures_.erase(replica);
        if (reply->path != path_) {
          // Not a crash but a departure: it answers from another region
          // (join split, recruit, migrate). Unlink it from the group;
          // its new position stays routable via refs.
          routing_.RemoveReplica(replica);
        }
      });
}

void Peer::OnProbeFailure(PeerId replica) {
  int& failures = probe_failures_[replica];
  if (++failures < kFailureConfirmProbes) return;
  // Suspicion promoted to confirmed failure: drop the peer from the
  // replica set and every routing level. If it was only partitioned it
  // re-announces on its next probe of us and re-links.
  probe_failures_.erase(replica);
  ++counters_.replicas_confirmed_dead;
  routing_.RemoveEverywhere(replica);
}

void Peer::HandleReplicaProbe(const Message& msg) {
  auto req = ReplicaProbeRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  // A prober with our exact path is (or was) a group member — re-link it.
  // This is how a restarted or formerly-confirmed-dead replica rejoins
  // its group without any harness help.
  if (req->path == path_ && path_.size() > 0) {
    routing_.AddReplica(req->initiator);
    probe_failures_.erase(req->initiator);
  }
  ReplicaProbeReply reply;
  reply.path = path_;
  reply.live_size = store_.live_size();
  rpc_.Reply(msg, MessageType::kReplicaProbeReply, reply.Encode());
}

void Peer::MaybeRecruit() {
  if (options_.replication_target == 0 || recruit_inflight_) return;
  const std::vector<PeerId>& replicas = routing_.replicas();
  if (replicas.size() + 1 >= options_.replication_target) return;

  // Candidates: referenced peers outside the group and not suspected.
  // One shuffle from this peer's own stream keeps the pick deterministic.
  std::set<PeerId> skip(replicas.begin(), replicas.end());
  skip.insert(id_);
  std::vector<PeerId> candidates;
  for (size_t l = 0; l < routing_.levels(); ++l) {
    for (PeerId p : routing_.RefsAt(l)) {
      if (skip.count(p) > 0 || Suspected(p)) continue;
      skip.insert(p);
      candidates.push_back(p);
    }
  }
  if (candidates.empty()) return;
  rng_.Shuffle(&candidates);
  const PeerId candidate = candidates.front();

  RecruitRequest req;
  req.initiator = id_;
  req.path = path_;
  req.refs = SnapshotRefs();
  recruit_inflight_ = true;
  rpc_.SendRequest(
      candidate, MessageType::kRecruit, req.Encode(),
      options_.request_timeout,
      [this, candidate](const Status& status, const Message& msg) {
        recruit_inflight_ = false;
        if (!status.ok()) return;  // Next guard tick tries again.
        auto reply = RecruitReply::Decode(msg.payload);
        if (!reply.ok() || !reply->accepted) return;
        routing_.AddReplica(candidate);
        ++counters_.recruits_completed;
        // Restore routability into the re-protected region: replicas and
        // referenced peers learn the candidate's new position.
        AnnounceRef(candidate, path_);
      });
}

void Peer::HandleRecruit(const Message& msg) {
  auto req = RecruitRequest::Decode(msg.payload);
  if (!req.ok() || !KnownPeer(req->initiator)) return;
  const Key& target = req->path;
  RecruitReply reply;
  if (target == path_ && path_.size() > 0) {
    // Already serving the region (e.g. two members recruited each other
    // after a split-brain repair): just re-link.
    routing_.AddReplica(req->initiator);
    reply.accepted = true;
  } else if (!exchange_busy_ && target.size() > 0) {
    const bool spare = path_.size() == 0 && store_.live_size() == 0;
    const bool surplus =
        options_.replication_target > 0 &&
        routing_.replicas().size() + 1 > options_.replication_target;
    if (spare || surplus) {
      // Leave the old (over-protected) group, which has members since it
      // is over target, and move. The old group must not survive the
      // move: stale members would be picked as repair donors and hand us
      // the region we just left.
      if (!spare) LeaveGroup();
      SetPath(target);
      routing_.AddReplica(req->initiator);
      // Adopt the recruiter's routing snapshot: with a freshly reset
      // table we would dead-end every foreign key routed through us.
      MergeRefs(req->refs, target);
      reply.accepted = true;
      // Catch up on the adopted region via manifest-delta repair (the
      // recruiter is our only replica so far, hence the donor).
      PullFromReplica(NoopStatus);
    }
  }
  rpc_.Reply(msg, MessageType::kRecruitReply, reply.Encode());
}

void Peer::AnnounceRef(PeerId peer, const Key& peer_path) {
  RefUpdate update;
  update.peer = peer;
  update.path = peer_path;
  const std::string payload = update.Encode();
  std::set<PeerId> targets;
  for (PeerId r : routing_.replicas()) targets.insert(r);
  for (size_t l = 0; l < routing_.levels(); ++l) {
    for (PeerId p : routing_.RefsAt(l)) targets.insert(p);
  }
  targets.erase(id_);
  targets.erase(peer);
  for (PeerId dst : targets) {
    Message msg;
    msg.type = MessageType::kRefUpdate;
    msg.src = id_;
    msg.dst = dst;
    msg.payload = payload;
    transport_->Send(std::move(msg));
  }
}

void Peer::HandleRefUpdate(const Message& msg) {
  auto update = RefUpdate::Decode(msg.payload);
  if (!update.ok() || update->peer == id_ || !KnownPeer(update->peer)) {
    return;
  }
  AddPeerByPath(update->peer, update->path);
}

}  // namespace pgrid
}  // namespace unistore
