// The P-Grid peer: overlay protocol endpoint + local storage.
#ifndef UNISTORE_PGRID_PEER_H_
#define UNISTORE_PGRID_PEER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/retry_policy.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "pgrid/advert_cache.h"
#include "pgrid/key.h"
#include "pgrid/local_store.h"
#include "pgrid/messages.h"
#include "pgrid/ophash.h"
#include "pgrid/routing_table.h"

namespace unistore {
namespace pgrid {

// Retry-policy counter keys (TrafficStats.retries_by_policy).
inline constexpr std::string_view kLookupRetryPolicy = "lookup";
inline constexpr std::string_view kBulkRetryPolicy = "bulk-insert";
inline constexpr std::string_view kRepairRetryPolicy = "repair";
inline constexpr std::string_view kRangeRetryPolicy = "range";

/// A peer offers a migrate-split to an exchange partner when it stores
/// more than this many times the partner's load.
inline constexpr double kBalanceFactor = 8.0;

/// Recursive meetings an exchange may trigger (construction gossip).
inline constexpr uint32_t kExchangeTtl = 2;

/// Total deadline of one PullFromReplica, measured from the call and
/// honoured across donor failovers: per-chunk retry budgets reset on
/// progress, this deadline never does, so a flapping replica set cannot
/// retry unboundedly.
inline constexpr sim::SimTime kRepairDeadline = 60 * sim::kMicrosPerSecond;

/// Times one lost/corrupt repair chunk is re-requested at the same offset
/// (transfer resume) before the repairer fails over to the next replica
/// candidate.
inline constexpr int kRepairChunkRetries = 2;

/// Cap on an advertised replica group (serving peer included).
inline constexpr size_t kHotKeyMaxReplicas = 4;

/// How long a peer that failed a request stays suspected. While
/// suspected, greedy routing and hot-replica fan-out prefer healthy
/// alternatives (and fall back to the plain draw when none exists, so
/// stale suspicion never turns into a dead end).
inline constexpr sim::SimTime kSuspicionTtl = 1 * sim::kMicrosPerSecond;

/// Consecutive failed probes that confirm a replica dead (suspicion
/// promoted to confirmed failure: the peer is removed from the replica
/// set and every routing level, and re-protection may recruit).
inline constexpr int kFailureConfirmProbes = 3;

/// Tunables of one peer's protocol behaviour.
struct PeerOptions {
  /// Combined live entries at which two equal-path peers split instead of
  /// replicating (the data-driven load-balancing knob: dense key regions
  /// split deeper — [Aberer VLDB'05]).
  size_t split_threshold = 256;

  /// How long an initiator waits on a routed request: an RPC, an attempt
  /// of a key-set lookup or batch insert, an attempt of a range scan, or
  /// a Migrate join's envelope walk. A key-set, scan or walk attempt
  /// restarts the wait on every reply or partial it gets (DESIGN.md §10).
  sim::SimTime request_timeout = 5 * sim::kMicrosPerSecond;

  /// Retries of a failed lookup, insert, range scan or envelope walk at
  /// the initiator. A lookup, insert or scan retry first waits the backoff
  /// schedule of common/retry_policy.h; a walk relaunches without one.
  int request_retries = 2;

  /// Replicas contacted per push round (rumor-spreading push,
  /// [Datta ICDCS'03]). A push names the peers it has already informed,
  /// and receivers forward fresh entries to at most this many replicas
  /// outside that set, so in a fully linked group the owner's push is
  /// the last message (DESIGN.md §13).
  size_t gossip_fanout = 2;

  // --- Replica repair: anti-entropy snapshot shipping (DESIGN.md §9) ----

  /// Byte budget, in Entry::EncodedSize bytes, of one kRunFetchReply
  /// chunk during replica repair and of one kBulkInsert sub-batch. Bounds
  /// every repair message on the wire; a sub-batch front-codes its
  /// entries, which for full-width keys never adds bytes, so the budget
  /// bounds it from above. A chunk always carries at least one entry, so
  /// an oversized entry still makes progress.
  size_t chunk_bytes = 64 * 1024;

  // --- Peer lifecycle & replica re-protection (DESIGN.md §11) ------------

  /// Copies each partition should keep (owner included). When > 0 the
  /// re-protection guard recruits a new replica whenever confirmed
  /// failures shrink the group below this target. 0 disables recruiting
  /// (the guard still confirms failures when it runs).
  size_t replication_target = 0;

  /// Period of the re-protection guard: every tick probes the linked
  /// replicas (failure detector) and recruits when under target.
  /// 0 disables the guard entirely (the default).
  sim::SimTime reprotect_period = 0;

  /// Virtual-time horizon of the guard: the periodic tick stops
  /// rescheduling at this time, so RunUntilIdle terminates. Must be set
  /// (> 0) whenever reprotect_period is.
  sim::SimTime reprotect_until = 0;

  /// Local storage engine knobs (memtable flush threshold, run
  /// compaction fan-in, storage backend — DESIGN.md § Local storage
  /// engine). With Backend::kDisk the peer stores its runs under
  /// `storage.data_dir + "/peer-<id>"`, so peers sharing one transport
  /// (a simulated cluster) get disjoint directories from one base dir.
  LocalStoreOptions storage;
};

/// How a lookup selects entries: only exact-key lookups exist. Only the
/// benchmark harness still names it, through the three-argument
/// Peer::Lookup; both go with the next change to the benchmark.
enum class LookupMode : uint8_t {
  kExact = 0,  ///< Entries whose key equals the requested key.
};

/// Result of a lookup operation.
struct LookupResult {
  std::vector<Entry> entries;
  uint32_t hops = 0;  ///< Overlay hops from initiator to the serving peer.
};

/// The keys of a key-set lookup, each with the entry-id suffixes it asks
/// for: a key with suffixes gets only the entries whose id ends with one
/// of them, a key without gets every entry stored under it.
using KeySuffixes = std::map<Key, std::vector<std::string>>;

/// Result of a key-set lookup: the entries each distinct requested key
/// asked for (every key appears, with no entries when none are stored
/// under it).
using LookupBatchResult = std::map<Key, std::vector<Entry>>;

/// Result of a range scan (either strategy).
struct RangeResult {
  std::vector<Entry> entries;
  uint32_t peers_contacted = 0;
  /// False when the "range" retry budget ran out on attempts that each
  /// met an unreachable branch, a stalled walk, or `request_timeout` with
  /// no partial; the last attempt's entries are still returned.
  bool complete = true;
};

/// What one peer counts about its own protocol work (Peer::counters());
/// the harness sums them over peers.
struct PeerCounters {
  // --- Replica-group fan-out (DESIGN.md §8) ------------------------------

  /// Lookups this peer answered from its own store (as owner or replica),
  /// including the initiator-local fast path.
  uint64_t lookups_served = 0;
  /// Lookup replies that carried a replica-group advert.
  uint64_t hot_adverts = 0;
  /// Lookup keys this peer, as initiator, sent straight to a round-robin
  /// replica instead of routing to the owner.
  uint64_t fanout_redirects = 0;

  // --- Replica repair (DESIGN.md §9) -------------------------------------

  /// Donors abandoned mid-repair (dead, corrupt, or vanished runs) before
  /// the repairer moved on to the next replica candidate.
  uint64_t repair_failovers = 0;
  /// Donor runs skipped because a local run already held identical
  /// content (the manifest-delta savings).
  uint64_t repair_runs_matched = 0;
  /// Donor runs fully fetched, verified, and spliced in.
  uint64_t repair_runs_fetched = 0;
  /// Checksum-valid repair chunks received (runs + memtable stream).
  uint64_t repair_chunks_received = 0;

  // --- Lifecycle (DESIGN.md §11) -----------------------------------------

  /// Times this peer went through Restart().
  uint64_t restarts = 0;
  /// Successful JoinVia completions (split or adoption).
  uint64_t joins_completed = 0;
  /// GracefulLeave calls (each hands the live set to the replica group).
  uint64_t leaves_completed = 0;
  /// Live entries shipped to the replica group by graceful leaves.
  uint64_t handoff_entries = 0;
  /// Replicas this peer recruited into its group (re-protection).
  uint64_t recruits_completed = 0;
  /// Replicas the failure detector confirmed dead (consecutive probe
  /// failures >= kFailureConfirmProbes) and removed everywhere.
  uint64_t replicas_confirmed_dead = 0;
  /// Virtual-time cost of the last post-restart catch-up pull (0 when no
  /// restart completed a catch-up yet).
  sim::SimTime last_restart_catchup_us = 0;
};

/// \brief One P-Grid node: path, routing table, local store, and the
/// message handlers implementing lookup/insert routing, both range-scan
/// strategies, the pairwise exchange (construction, load balancing), and
/// replica maintenance (rumor push + anti-entropy pull).
///
/// All client operations are asynchronous: they return immediately and the
/// callback fires from the simulation loop. Synchronous wrappers for tests
/// and benchmarks live in the harness (RunToCompletion in overlay.h).
class Peer {
 public:
  using LookupCallback = std::function<void(Result<LookupResult>)>;
  using LookupBatchCallback = std::function<void(Result<LookupBatchResult>)>;
  using RangeCallback = std::function<void(Result<RangeResult>)>;
  using StatusCallback = std::function<void(Status)>;
  using ExtensionHandler = std::function<void(const net::Message&)>;

  /// Creates the peer and registers it with `transport`.
  Peer(net::Transport* transport, uint64_t rng_seed, PeerOptions options);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  PeerId id() const { return id_; }
  const Key& path() const { return path_; }
  const PeerOptions& options() const { return options_; }
  LocalStore& store() { return store_; }
  const LocalStore& store() const { return store_; }
  RoutingTable& routing() { return routing_; }
  const RoutingTable& routing() const { return routing_; }
  net::RpcManager& rpc() { return rpc_; }
  net::Transport* transport() { return transport_; }
  Rng& rng() { return rng_; }

  /// True iff this peer's path is a prefix of `key`.
  bool IsResponsible(const Key& key) const { return path_.IsPrefixOf(key); }

  /// Forwards a routed request one hop toward `key`: a copy of `msg` from
  /// this peer with one more hop. Returns the chosen next hop, or kNoPeer
  /// on a dead end (no reference, or `msg` already made 2·kKeyBits hops).
  /// Protocol extensions (mutant query plan envelopes) route with this.
  PeerId Forward(const net::Message& msg, const Key& key);

  // --- Harness-side setup (bypasses the network; used by Overlay) --------

  /// Sets the path and resizes the routing table (refs and replicas
  /// cleared). Region moves (migrate, join, recruit) go through it too.
  void SetPath(const Key& path);

  /// Stores an entry locally without routing.
  void ApplyLocal(const Entry& entry) { store_.Apply(entry); }

  // --- Asynchronous client API -------------------------------------------

  /// Returns the entries stored under `key`: a LookupBatch of one key.
  void Lookup(const Key& key, LookupCallback callback);
  void Lookup(const Key& key, LookupMode /*mode*/, LookupCallback callback) {
    Lookup(key, std::move(callback));
  }

  /// \brief Exact lookup of a key set (DESIGN.md §13).
  ///
  /// The keys travel as Lookup messages that the key-set router splits at
  /// every peer, one next hop per routing level, like InsertBatch; each
  /// peer serving keys or hitting a dead end answers the initiator,
  /// forwarders stay silent. Keys under a cached replica-group advert go
  /// one hop to an advertised replica instead (DESIGN.md §8). Keys still
  /// unanswered `request_timeout` after the attempt's last reply (or all
  /// dead-ended) retry as a smaller batch under the "lookup" retry budget; when it runs out the
  /// callback gets Unavailable naming the number of missing keys.
  /// An empty set completes at once. Suffixes travel with their key on
  /// every hop and retry; whichever peer serves the key (this one, the
  /// owner, or an advertised replica) returns only the entries they
  /// match.
  void LookupBatch(KeySuffixes keys, LookupBatchCallback callback);

  /// Stores `entry` at its owner: an InsertBatch of one entry.
  void Insert(Entry entry, StatusCallback callback);

  /// \brief Routes a batch of entries to their owners (DESIGN.md §6, §13).
  ///
  /// The entries travel as BulkInsert messages that the key-set router
  /// splits at every peer, one next hop per routing level, each carrying
  /// at most `chunk_bytes` of entries. Entries under a cached
  /// replica-group advert go one hop to one advertised replica instead
  /// (DESIGN.md §8). A responsible peer stores its group (one entry
  /// through the memtable, more as one run), pushes the entries that
  /// changed its store to its replicas, and tells the initiator which
  /// entries it stored; forwarders stay silent. The
  /// callback gets OK once every entry is stored. Entries still unstored
  /// `request_timeout` after the attempt's last reply (or all dead-ended)
  /// retry as a smaller batch under the "bulk-insert" retry budget (versioned upserts make
  /// re-delivery idempotent); when it runs out the callback gets
  /// Unavailable.
  void InsertBatch(std::vector<Entry> entries, StatusCallback callback);

  /// Deletes by writing a tombstone (id under `key` with higher version).
  void Remove(const Key& key, const std::string& entry_id, uint64_t version,
              StatusCallback callback);

  /// Sequential (min-first) range scan: walks leaves left to right.
  /// `limit` > 0 terminates the walk early after that many entries were
  /// collected (ordered top-N pushdown; entries arrive in key order).
  void RangeScanSeq(const KeyRange& range, RangeCallback callback,
                    uint32_t limit = 0);

  /// Parallel "shower" range scan: forks into every subtree overlapping
  /// the range.
  ///
  /// Either scan restarts when an attempt comes back incomplete (a branch
  /// unreachable, the walk stalled, or `request_timeout` passed since the
  /// attempt started or last got a partial), under the "range" retry
  /// budget and a fresh scan id. Only when that budget is spent does the
  /// callback get `complete` = false.
  void RangeScanShower(const KeyRange& range, RangeCallback callback);

  /// One pairwise exchange with `other` (construction / refinement /
  /// balancing). Joining the network is an exchange from an empty path.
  void InitiateExchange(PeerId other, StatusCallback callback);

  /// \brief Anti-entropy: repairs this replica against its replica group
  /// via manifest-delta snapshot shipping (DESIGN.md §9).
  ///
  /// Pulls a donor's run manifest, fetches only the runs this peer is
  /// missing (matched by entry count + content checksum) as bounded,
  /// CRC-verified chunks — plus the donor's memtable as a chunked
  /// fallback entry stream — and splices them in. Donors are tried in a
  /// deterministic shuffled order from this peer's RNG stream: a dead or
  /// corrupt donor fails over to the next replica before the callback
  /// surfaces failure.
  void PullFromReplica(StatusCallback callback);

  // --- Extension hook (query layer, statistics gossip) -------------------

  /// Registers a handler for a message type the overlay does not consume.
  void SetExtensionHandler(net::MessageType type, ExtensionHandler handler);

  // --- Peer lifecycle (DESIGN.md §11) ------------------------------------

  /// \brief Crash-restart recovery: the peer comes back under its old
  /// identity (id, path, routing table) with its volatile state gone.
  ///
  /// Every in-flight initiator-side operation fails with Unavailable, the
  /// RPC table drains, caches (replica-group adverts, suspicion, probe
  /// counts) reset, and the store is rebuilt: a disk-backed peer re-opens its
  /// data_dir and replays the flush manifest (crash recovery, DESIGN.md
  /// §6), a memory-backed peer restarts empty. If the peer has linked
  /// replicas it then re-announces itself (probe) and catches up via
  /// manifest-delta repair; `on_catchup` fires when that pull settles
  /// (immediately when there is nothing to pull from).
  ///
  /// Scheduled by Overlay::InstallChurn at the restart edge of a crash
  /// window; runs as an event of this peer's own domain.
  void Restart(StatusCallback on_catchup = {});

  /// \brief Live join: asks `sponsor` for a place in the trie.
  ///
  /// The sponsor either splits its region — the joiner adopts one half
  /// path and receives that half's live entries inline — or adopts the
  /// joiner into its replica group, in which case the joiner copies the
  /// sponsor's path, links the group, and catches up via manifest-delta
  /// repair. A declined or lost request surfaces through `callback`; the
  /// churn plane retries are the harness's business (InstallChurn picks
  /// sponsors deterministically).
  void JoinVia(PeerId sponsor, StatusCallback callback);

  /// Graceful leave: hands every live entry to each linked replica before
  /// the churn window takes this peer down. Departure itself is the churn
  /// plane's job; this is only the data handoff.
  void GracefulLeave();

  /// Hook invoked at the top of Restart(), before any state is torn down.
  /// The query layer registers its invalidation here (open migrations,
  /// gossip contributions) so no pre-crash query state survives.
  void set_restart_hook(std::function<void()> hook) {
    restart_hook_ = std::move(hook);
  }

  // --- Observability -----------------------------------------------------

  const PeerCounters& counters() const { return counters_; }

  /// The adverts this peer, as initiator, has cached (size, sheds).
  const AdvertCache& advert_cache() const { return advert_cache_; }

  /// Lookups and batch inserts this peer initiated that have not
  /// completed yet (tests).
  size_t key_sets_in_flight() const { return key_set_ops_.size(); }

  /// True while `peer` is under active suspicion (tests).
  bool IsSuspected(PeerId peer) const { return Suspected(peer); }
  /// Entries of the suspicion table, expired ones included (tests).
  size_t suspicions_held() const { return suspects_.size(); }

 private:
  // Message pump.
  void OnMessage(const net::Message& msg);

  // Client ops with retry budget (common/retry_policy.h).
  void DoInitiateExchange(PeerId other, uint32_t ttl, StatusCallback callback);

  // Retry plumbing: the per-protocol policy built from the options and
  // the virtual clock.
  RetryPolicy RequestPolicy(std::string_view name) const;
  sim::SimTime NowUs() const;
  // The one deadline rule of an operation's timer (DESIGN.md §10): arming
  // cancels the `*timer` armed before and schedules `fn` after `delay` (a
  // request timeout or a retry's backoff); ending an attempt or the
  // operation cancels it.
  void ArmTimer(sim::EventId* timer, sim::SimTime delay,
                std::function<void()> fn);

  // Peer suspicion (graceful degradation): failed requests mark the target
  // suspected for kSuspicionTtl; successes clear it. Routing prefers
  // unsuspected candidates while a healthy one exists.
  void ObservePeer(PeerId peer, bool ok);
  bool Suspected(PeerId peer) const;

  // Routing.
  PeerId NextHop(const Key& key);

  // The key-set router (DESIGN.md §13) of lookups and batch inserts:
  // splits items that arrived after `hops` hops into the ones this peer
  // serves, one group per next hop (one NextHop draw per routing level),
  // and dead ends (no reference, or the 2·kKeyBits hop cap of Forward).
  template <typename Item>
  struct KeySetRoute {
    std::vector<Item> mine;
    std::map<PeerId, std::vector<Item>> next;
    std::vector<Item> dead_ends;
  };
  template <typename Item, typename KeyOf>
  KeySetRoute<Item> RouteKeySet(std::vector<Item> items, uint32_t hops,
                                KeyOf key_of);
  // Sends one hop of a key-set request or shower branch of the
  // initiator's `request_id`.
  void SendRouted(net::MessageType type, PeerId next, uint64_t request_id,
                  uint32_t hops, std::string payload);

  // Request handlers (invoked for messages, and locally by client ops when
  // this peer is already responsible).
  void HandleKeySetLookup(const net::Message& msg);
  void HandleBulkInsert(const net::Message& msg);
  void HandleRangeSeq(const net::Message& msg);
  void HandleRangeShower(const net::Message& msg);
  void HandleExchange(const net::Message& msg);
  void HandleEntryBatch(const net::Message& msg);
  // Stores a handed-off batch. With reroute_if_foreign or gossip, an entry
  // outside this peer's path is rerouted to its owner, and kept here if
  // that insert fails.
  void StoreEntryBatch(EntryBatch batch);

  // Replica repair, donor side (stateless): the manifest summary and one
  // bounded chunk of a run's (or the memtable's) entry stream.
  void HandleManifestPull(const net::Message& msg);
  void HandleRunFetch(const net::Message& msg);

  // Peer lifecycle & replica re-protection (DESIGN.md §11).
  // The storage options this peer actually opens its store with (disk
  // backends get the per-peer data_dir suffix) — shared by the
  // constructor and Restart so both open the same directory.
  LocalStoreOptions ResolvedStorage() const;
  // Fails every in-flight initiator-side operation with `status`, in this
  // order: walks, showers, lookups and bulk inserts, repairs; their
  // per-request state is dropped.
  void FailInFlight(const Status& status);
  // Periodic re-protection guard: probe linked replicas, confirm
  // failures, recruit when the group is under target.
  void ScheduleGuard();
  void GuardTick();
  void SendProbe(PeerId replica);
  void OnProbeFailure(PeerId replica);
  void MaybeRecruit();
  // Fire-and-forget membership gossip: tells replicas and referenced
  // peers that `peer` now serves `peer_path` (route restoration after a
  // recruit or adoption).
  void AnnounceRef(PeerId peer, const Key& peer_path);
  void HandleReplicaProbe(const net::Message& msg);
  void HandleJoin(const net::Message& msg);
  void HandleRecruit(const net::Message& msg);
  void HandleRefUpdate(const net::Message& msg);

  // Replica-group fan-out (DESIGN.md §8), initiator side: advances the
  // round-robin cursor of `advert` to its next member that is not this
  // peer, dropped or suspected, or returns kNoPeer (also for a null
  // advert) to use normal routing.
  PeerId PickHotReplica(AdvertCache::Advert* advert);
  // Serving side: this peer's path and up to kHotKeyMaxReplicas members
  // of its group (itself included) in id order, so every member sends
  // the same list; empty without a replica group.
  ReplicaAdvert GroupAdvert() const;

  // Shared protocol steps.
  void ProcessRangeSeq(const RangeSeqRequest& req, uint64_t request_id,
                       uint32_t hops);
  void ProcessRangeShower(const RangeShowerRequest& req, uint64_t request_id,
                          uint32_t hops);
  void DeliverSeqPartial(PeerId initiator, uint64_t request_id, uint32_t hops,
                         const RangeSeqReply& reply);
  // One partial of the scan `request_id` of either strategy: its entries
  // join the result. A walk ends at its last leaf (no `forwards`) or at a
  // `failed` one; a shower once every branch it forked answered, and a
  // `failed` (unreachable) branch leaves it incomplete.
  void OnScanPartial(uint64_t request_id, bool shower,
                     const std::vector<Entry>& entries, bool failed,
                     uint32_t forwards);

  // Exchange protocol.
  ExchangeReply DecideExchange(const ExchangeRequest& req);
  // Moves reply->entries into this peer's store (StoreEntryBatch).
  void ApplyExchangeReply(ExchangeReply* reply, PeerId responder);
  RefsBlock SnapshotRefs() const;
  /// True iff `peer` is a registered transport endpoint — the gate every
  /// payload-derived peer id passes before entering routing state.
  bool KnownPeer(PeerId peer) const;
  void MergeRefs(const RefsBlock& refs, const Key& sender_path);
  void AddPeerByPath(PeerId peer, const Key& peer_path);

  // Region moves (exchange, join, recruit). SplitRegion narrows this
  // peer's region to its `bit` half, references `other` for the other
  // half and returns the entries that left the region. LeaveGroup empties
  // the store into one random old replica (which holds the region
  // already: this covers the memtable delta), or into the returned
  // entries when there is no replica.
  std::vector<Entry> SplitRegion(bool bit, PeerId other);
  std::vector<Entry> LeaveGroup();

  // Initiator-side state of an in-flight key-set operation, keyed by
  // request id: a lookup of `keys` or a batch insert of `entries`. A slot
  // is a key of `keys` or an entry of `entries`.
  enum class SlotState : uint8_t { kPending, kDeadEnd, kDone };
  struct KeySetOp {
    std::vector<BatchKey> keys;  ///< A lookup's distinct keys, by slot.
    std::vector<Entry> entries;  ///< An insert's batch.
    /// Gets `results` (empty for an insert), or the failure.
    std::function<void(Result<std::vector<LookupResult>>)> callback;
    std::vector<LookupResult> results;  ///< A lookup's answers, per slot.
    std::vector<SlotState> slots;
    /// Per slot, the peer this attempt sent it to (kNoPeer when served
    /// here or dead-ended).
    std::vector<PeerId> first_hops;
    size_t missing = 0;    ///< Slots no reply finished yet.
    size_t dead_ends = 0;  ///< Missing slots this attempt could not route.
    RetryBudget budget;
    /// The running attempt's deadline, or the backoff before the next.
    sim::EventId timer = sim::kNoEvent;
    bool backing_off = false;  ///< `timer` is the backoff.

    bool is_insert() const { return !entries.empty(); }
    /// Marks `slot` done; false when it is out of range or already done.
    bool Finish(uint32_t slot) {
      if (slot >= slots.size() || slots[slot] == SlotState::kDone) {
        return false;
      }
      if (slots[slot] == SlotState::kDeadEnd) --dead_ends;
      slots[slot] = SlotState::kDone;
      --missing;
      return true;
    }
    /// Marks a still-pending `slot` as dead-ended.
    void DeadEnd(uint32_t slot) {
      if (slot >= slots.size() || slots[slot] != SlotState::kPending) return;
      slots[slot] = SlotState::kDeadEnd;
      ++dead_ends;
    }
  };

  // Key-set operations (DESIGN.md §13): the initiator's side of a lookup
  // or a batch insert. Start sizes the slot state and sends the first
  // attempt; each attempt serves or stores what this peer owns and sends
  // the rest (the kind's Send*Attempt), replies finish slots, and Settle
  // completes the operation, retries it once every missing slot dead-
  // ended, or else (re-)arms the attempt's `request_timeout` deadline and
  // returns. A timed-out attempt (OnKeySetTimeout) suspects the first
  // hops of the slots no reply named, then retries.
  void StartKeySet(KeySetOp op);
  void SendKeySet(uint64_t request_id);
  void SendLookupAttempt(uint64_t request_id, KeySetOp& op);
  void SendInsertAttempt(uint64_t request_id, KeySetOp& op);
  void SettleKeySet(uint64_t request_id);
  void OnKeySetTimeout(uint64_t request_id);
  void RetryKeySet(uint64_t request_id);
  // A reply of either kind (LookupBatchReply or BulkInsertReply): one
  // that names an in-flight op of its kind (`insert`) and a known replier
  // marks the replier healthy, teaches its advert, lets `finish` finish
  // the slots it answers, dead-ends the slots it lists and settles the op.
  template <typename Reply, typename FinishFn>
  void OnKeySetReply(const net::Message& msg, bool insert, FinishFn finish);

  // Batch inserts: stores the entries of `route.mine`
  // (StoreAndReplicate) and lists their slots in `reply`, forwards each
  // group of `route.next` in chunk_bytes sub-batches under `request_id`,
  // and lists the unroutable ones as dead ends.
  void DispatchBulkInsert(KeySetRoute<BatchEntry> route, PeerId initiator,
                          uint64_t request_id, uint32_t hops,
                          BulkInsertReply* reply);
  // Stores a group this peer serves (LocalStore::Write) and pushes the
  // entries that changed the store to the replicas.
  void StoreAndReplicate(std::vector<Entry> entries);
  // Key-set lookups: sends one request per next hop of `next` under
  // `request_id`.
  void ForwardLookup(std::map<PeerId, std::vector<BatchKey>> next,
                     PeerId initiator, uint64_t request_id, uint32_t hops);

  // Replica maintenance.
  // Pushes `entries` to up to gossip_fanout replicas outside `informed`
  // (the peers the push already reached); each target gets the informed
  // set extended by itself, this peer and its fellow targets.
  void PushBatchToReplicas(std::vector<Entry> entries,
                           std::vector<PeerId> informed);
  // Sends one EntryBatch of `entries` to each of `targets` but this peer:
  // the batch is encoded once, and every target gets the same bytes.
  void SendEntries(const std::vector<PeerId>& targets,
                   std::vector<Entry> entries, bool reroute_if_foreign,
                   bool gossip, std::vector<PeerId> informed = {});

  net::Transport* transport_;
  PeerId id_;
  PeerOptions options_;
  Rng rng_;
  Key path_;
  LocalStore store_;
  RoutingTable routing_;
  net::RpcManager rpc_;
  bool exchange_busy_ = false;

  std::map<net::MessageType, ExtensionHandler> extensions_;
  PeerCounters counters_;

  // Replica-group fan-out state (DESIGN.md §8).
  AdvertCache advert_cache_;

  // Peer suspicion state: peer -> suspicion expiry (absolute virtual
  // time). Driven purely by this peer's own observed request outcomes.
  std::map<PeerId, sim::SimTime> suspects_;

  // Lifecycle state (DESIGN.md §11). probe_failures_ counts consecutive
  // failed probes per replica; reaching kFailureConfirmProbes confirms
  // the failure.
  std::function<void()> restart_hook_;
  std::map<PeerId, int> probe_failures_;
  bool recruit_inflight_ = false;

  // Initiator-side state of in-flight range scans of both strategies,
  // keyed by request id. A retry moves the scan to a fresh id.
  struct ScanState {
    bool shower = false;       ///< The strategy: shower, else a walk.
    RangeCallback callback;
    RangeResult result;        ///< This attempt's partials.
    KeyRange range;
    uint32_t limit = 0;        ///< Walk only.
    RetryBudget budget;
    uint32_t outstanding = 1;  ///< Partials still due.
    /// The attempt's deadline, or the backoff before the next attempt.
    sim::EventId timer = sim::kNoEvent;
  };
  uint64_t next_scan_id_ = 1;
  std::map<uint64_t, ScanState> scans_;

  // In-flight key-set operations (lookups and batch inserts).
  std::map<uint64_t, KeySetOp> key_set_ops_;

  // Repairer-side state of one in-flight PullFromReplica (DESIGN.md §9).
  struct RepairState {
    StatusCallback callback;
    std::vector<PeerId> candidates;  ///< Shuffled once; failover order.
    size_t next_candidate = 0;
    PeerId donor = net::kNoPeer;
    std::deque<RunSummary> missing;  ///< Donor runs still to fetch.
    bool memtable_pending = false;   ///< Fallback entry stream still due.
    RunSummary current;              ///< Run being fetched right now.
    uint64_t next_entry = 0;         ///< Resume offset of the next chunk.
    RunChecksum crc;                 ///< Accumulated over fetched entries.
    std::vector<Entry> pending;      ///< Fetched entries of `current`.
    /// Chunk-level retry budget: attempts reset on every received chunk
    /// (transfer resume), but the embedded deadline is anchored at the
    /// PullFromReplica call and survives donor failovers.
    RetryBudget chunk_budget;
    int manifest_restarts_left = 1;  ///< Donor compacted mid-repair.
    sim::EventId timer = sim::kNoEvent;  ///< A chunk retry's backoff.
  };
  uint64_t next_repair_id_ = 1;
  std::map<uint64_t, RepairState> repairs_;

  // Repairer-side steps; each either advances the state machine or fails
  // over (RepairTryNextCandidate) — FinishRepair fires the callback.
  void RepairTryNextCandidate(uint64_t repair_id);
  void RepairPullManifest(uint64_t repair_id);
  void RepairOnManifest(uint64_t repair_id, const ManifestPullReply& manifest);
  void RepairFetchNext(uint64_t repair_id);
  void RepairRequestChunk(uint64_t repair_id);
  // One lost/corrupt chunk: spend a retry (same offset, resume), or fail
  // over to the next candidate, which surfaces a passed deadline.
  void RepairChunkRetry(uint64_t repair_id);
  void RepairOnChunk(uint64_t repair_id, const RunFetchReply& chunk);
  void FinishRepair(uint64_t repair_id, Status status);

  // Range scans: StartScan files a scan of either strategy, SendScan
  // starts one attempt of the scan stored under `id` and arms its
  // `request_timeout` deadline (re-armed by every partial), and FinishScan
  // completes it or, when incomplete, spends one "range" retry and
  // restarts it under a fresh id.
  void StartScan(bool shower, const KeyRange& range, RangeCallback callback,
                 uint32_t limit);
  void SendScan(uint64_t id);
  void ArmScanTimer(uint64_t id, ScanState& state);
  void FinishScan(uint64_t request_id, bool complete);
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_PEER_H_
