// Payload structs for the P-Grid overlay protocols.
//
// Conventions: routed requests keep the header `request_id` stable along
// the forwarding chain and carry the initiator's PeerId in the payload; the
// terminal peer replies directly to the initiator (net/rpc.h).
#ifndef UNISTORE_PGRID_MESSAGES_H_
#define UNISTORE_PGRID_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/function_ref.h"
#include "common/result.h"
#include "net/message.h"
#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "pgrid/run_summary.h"

namespace unistore {
namespace pgrid {

using net::PeerId;

/// References grouped by trie level, as shipped in exchange messages.
struct RefsBlock {
  // refs[l] = peers referenced at level l.
  std::vector<std::vector<PeerId>> refs;

  void Encode(BufferWriter* w) const;
  static Result<RefsBlock> Decode(BufferReader* r);
};

/// One key of a routed key-set lookup, tagged with its slot: its position
/// in the initiator's deduplicated key vector. A key with `suffixes` asks
/// only for the entries whose id ends with one of them; without, for
/// every entry under it. To this layer a suffix is just bytes.
struct BatchKey {
  uint32_t slot = 0;
  Key key;
  std::vector<std::string> suffixes;
};

/// \brief Key-set lookup (Peer::LookupBatch; a Peer::Lookup is one key).
///
/// Travels like a BulkInsertRequest: every visited peer serves the keys it
/// is responsible for, groups the rest by next routing hop and forwards
/// one request per group under the initiator's request id.
///
/// Wire format: the initiator, then the keys (slot, key). The suffixes of
/// the keys that have any follow as an optional trailer (the number of
/// such keys, then per key its index in `keys`, in increasing order, and
/// its suffixes as a counted list of strings), so a request without
/// suffixes ends after its keys.
struct LookupBatchRequest {
  PeerId initiator = net::kNoPeer;
  std::vector<BatchKey> keys;

  std::string Encode() const;
  static Result<LookupBatchRequest> Decode(std::string_view bytes);
};

/// \brief A replica-group advert (DESIGN.md §8), carried by the replies
/// of key-set lookups and batch inserts.
///
/// The initiator may send further keys under `path` one hop to a member
/// of `replicas` (serving peer included, in id order) instead of routing
/// them. Empty when the replying peer served or stored nothing, or has
/// no replica group.
struct ReplicaAdvert {
  std::vector<PeerId> replicas;
  Key path;

  bool empty() const { return replicas.empty(); }
  void Encode(BufferWriter* w) const;
  static Result<ReplicaAdvert> Decode(BufferReader* r);
};

/// Writes the entries of the `i`-th answer as one keyless EntryListWriter
/// list.
using AnswerStreamFn = FunctionRef<void(size_t i, BufferWriter*)>;

/// Sent to the initiator only by a peer that served keys or hit a routing
/// dead end; pure forwarders stay silent. Slots name keys of the
/// initiator's key vector, so a duplicated reply changes nothing. Answers
/// travel keyless: the entries of a slot all carry the slot's key, which
/// the initiator sent and puts back; Decode leaves their keys empty.
struct LookupBatchReply {
  struct Answer {
    uint32_t slot = 0;
    std::vector<Entry> entries;
  };
  PeerId peer = net::kNoPeer;       ///< The replying peer.
  std::vector<Answer> answers;      ///< Slots served at `peer`.
  std::vector<uint32_t> dead_ends;  ///< Slots `peer` had no route for.
  ReplicaAdvert advert;             ///< `peer`'s group, if it served keys.

  std::string Encode() const;
  /// Byte-identical to Encode() with `answers` naming `slots` in order,
  /// but the entries of each answer come from `emit` (ignoring the
  /// `answers` member).
  std::string EncodeStreamed(const std::vector<uint32_t>& slots,
                             AnswerStreamFn emit) const;
  static Result<LookupBatchReply> Decode(std::string_view bytes);
};

/// One entry of a routed batch, tagged with its position in the
/// initiator's batch.
struct BatchEntry {
  uint32_t slot = 0;
  Entry entry;
};

/// \brief Routed batch insert (Peer::InsertBatch).
///
/// Travels like a LookupBatchRequest: every visited peer stores the
/// entries it is responsible for, groups the rest by next routing hop and
/// forwards them, at most `PeerOptions::chunk_bytes` of entries (as
/// Entry::EncodedSize counts them) per request, under the initiator's
/// request id. Wire format: the initiator, then the entries as one
/// EntryListWriter list with each entry's slot written before it.
struct BulkInsertRequest {
  PeerId initiator = net::kNoPeer;
  std::vector<BatchEntry> entries;

  std::string Encode() const;
  static Result<BulkInsertRequest> Decode(std::string_view bytes);
};

/// Sent to the initiator only by a peer that stored entries or hit a
/// routing dead end; pure forwarders stay silent. Slots name entries of
/// the initiator's batch, so a duplicated reply changes nothing.
struct BulkInsertReply {
  PeerId peer = net::kNoPeer;       ///< The replying peer.
  std::vector<uint32_t> stored;     ///< Slots stored at `peer`.
  std::vector<uint32_t> dead_ends;  ///< Slots `peer` had no route for.
  ReplicaAdvert advert;             ///< `peer`'s group, if it stored any.

  std::string Encode() const;
  static Result<BulkInsertReply> Decode(std::string_view bytes);
};

struct RangeSeqRequest {
  PeerId initiator = net::kNoPeer;
  KeyRange range;
  /// Stop the walk once this many entries were collected (0 = unlimited).
  /// Because entries arrive in key order, this implements early-terminating
  /// ordered scans (top-N pushdown).
  uint32_t limit = 0;
  /// Entries collected by earlier walk steps (maintained by the protocol).
  uint32_t collected = 0;

  std::string Encode() const;
  static Result<RangeSeqRequest> Decode(std::string_view bytes);
};

/// One partial result of the sequential walk. `will_forward` tells the
/// initiator whether another partial reply is coming.
struct RangeSeqReply {
  std::vector<Entry> entries;
  bool will_forward = false;
  Key peer_path;
  uint8_t status_code = 0;
  std::string error;

  std::string Encode() const;
  /// Byte-identical to Encode() with `entries` holding the same sequence,
  /// but the entries are the one EntryListWriter list `w` holds,
  /// written straight from a LocalStore scan (zero-copy read path,
  /// DESIGN.md §6); the `entries` member is ignored.
  std::string EncodeStreamed(BufferWriter w) const;
  static Result<RangeSeqReply> Decode(std::string_view bytes);
};

struct RangeShowerRequest {
  PeerId initiator = net::kNoPeer;
  KeyRange range;

  std::string Encode() const;
  static Result<RangeShowerRequest> Decode(std::string_view bytes);
};

/// One branch result of the shower multicast. `forwards` = number of
/// sub-requests this peer spawned; the initiator tracks
/// outstanding += forwards - 1 until it reaches zero. `unreachable` counts
/// range branches the peer could not forward to (no live reference), so
/// the initiator can flag an incomplete result instead of silently
/// returning partial data.
struct RangeShowerReply {
  std::vector<Entry> entries;
  uint32_t forwards = 0;
  uint32_t unreachable = 0;
  Key peer_path;

  std::string Encode() const;
  /// Streamed-entries variant of Encode() (see RangeSeqReply).
  std::string EncodeStreamed(BufferWriter w) const;
  static Result<RangeShowerReply> Decode(std::string_view bytes);
};

/// Pairwise construction/refinement (paper §2: "constructed by pair-wise
/// interactions between nodes without central coordination").
struct ExchangeRequest {
  PeerId initiator = net::kNoPeer;
  Key path;
  uint64_t live_size = 0;
  uint32_t replica_count = 0;  ///< Initiator's replicas (migration safety).
  uint32_t ttl = 0;  ///< Remaining recursive meetings to trigger.
  RefsBlock refs;

  std::string Encode() const;
  static Result<ExchangeRequest> Decode(std::string_view bytes);
};

enum class ExchangeAction : uint8_t {
  kNone = 0,        ///< Only references were exchanged.
  kBusy = 1,        ///< Responder is mid-exchange; try again later.
  kSplit = 2,       ///< Equal paths, enough data: initiator takes '0' side.
  kReplicate = 3,   ///< Equal paths, little data: become replicas.
  kSpecialize = 4,  ///< Initiator's path was a prefix: extend it.
  kMigrateSplit = 5,  ///< Initiator migrates under responder's path.
};

struct ExchangeReply {
  ExchangeAction action = ExchangeAction::kNone;
  Key new_initiator_path;  ///< Empty = keep current path.
  Key responder_path;      ///< Responder's path after the exchange.
  uint64_t responder_size = 0;
  std::vector<Entry> entries;      ///< Data now owned by the initiator.
  RefsBlock refs;                  ///< Responder's references (merge).

  std::string Encode() const;
  static Result<ExchangeReply> Decode(std::string_view bytes);
};

/// Entry batch applied at the receiver. With `reroute_if_foreign`, entries
/// outside the receiver's path are re-inserted via normal routing instead
/// of being stored (used for post-exchange data handoff).
struct EntryBatch {
  std::vector<Entry> entries;
  bool reroute_if_foreign = false;
  bool gossip = false;  ///< Receiver forwards to random replicas (rumor).
  /// Peers the push has already reached, sender and receiver included. A
  /// gossip receiver forwards only to replicas outside this set
  /// (DESIGN.md §13).
  std::vector<PeerId> informed;

  std::string Encode() const;
  static Result<EntryBatch> Decode(std::string_view bytes);
};

// --- Replica repair: manifest-delta anti-entropy (DESIGN.md §9) ----------
//
// A repairing peer no longer pulls a donor's whole store in one message.
// It pulls the donor's run manifest (kManifestPull), matches the donor's
// runs against its own by (entry_count, checksum), and then fetches only
// the missing runs — plus the donor's memtable as a pseudo run
// (kMemtableRunId) — as bounded, checksummed chunks (kRunFetch).

/// Donor's state description: one RunSummary per immutable run (oldest
/// first) plus the count of memtable-resident entries only reachable via
/// the fallback entry-stream fetch.
struct ManifestPullReply {
  std::vector<RunSummary> runs;   ///< Oldest first.
  uint64_t memtable_entries = 0;  ///< Entries with no run file yet.
  Key donor_path;         ///< Donor's trie path (diagnostics).

  std::string Encode() const;
  static Result<ManifestPullReply> Decode(std::string_view bytes);
};

/// One chunk request against a donor run (or its memtable when `run_id`
/// is kMemtableRunId). `start_entry` is the resume offset: after a lost
/// or timed-out chunk the repairer re-requests the same offset, so a
/// transfer resumes where it left off instead of restarting.
struct RunFetchRequest {
  uint64_t run_id = 0;
  uint32_t expected_checksum = 0;  ///< 0 for the memtable pseudo run.
  uint64_t start_entry = 0;        ///< First entry index of this chunk.
  uint64_t max_bytes = 0;          ///< Entry-byte budget (>=1 entry ships).

  std::string Encode() const;
  static Result<RunFetchRequest> Decode(std::string_view bytes);
};

/// One bounded chunk of a run's entry stream.
struct RunFetchReply {
  /// Why a fetch carried no data.
  enum Code : uint8_t {
    kOk = 0,
    /// The run no longer exists on the donor (compacted/reset since the
    /// manifest pull) or its checksum no longer matches the request —
    /// the repairer must restart from a fresh manifest.
    kGone = 1,
  };

  uint8_t code = kOk;
  uint64_t run_id = 0;
  uint64_t start_entry = 0;    ///< Echoed request offset.
  uint64_t total_entries = 0;  ///< Run size (memtable size for fallback).
  bool done = false;           ///< This chunk reaches the end of the run.
  uint32_t chunk_crc = 0;      ///< CRC-32C over `block`.
  /// Concatenated Entry encodings — no count prefix; the receiver decodes
  /// until the block is exhausted (its boundary is length-prefixed by the
  /// reply codec). Unless `done`, a non-error chunk carries >= 1 entry
  /// even when a single entry exceeds `max_bytes` (progress guarantee).
  /// Not front-coded: `max_bytes` is measured on the block, so coding it
  /// would change how many chunks a repair takes (DESIGN.md §3).
  std::string block;

  std::string Encode() const;
  static Result<RunFetchReply> Decode(std::string_view bytes);
};

// -- Peer lifecycle & replica re-protection (DESIGN.md §11) -----------------

/// Failure-detector probe: "are you still my replica for `path`?" Sent
/// periodically by the re-protection guard to every linked replica, and
/// once by a restarted peer to re-announce itself to its old group.
struct ReplicaProbeRequest {
  PeerId initiator = net::kNoPeer;
  Key path;  ///< The prober's current trie path.

  std::string Encode() const;
  static Result<ReplicaProbeRequest> Decode(std::string_view bytes);
};

struct ReplicaProbeReply {
  Key path;        ///< Responder's current trie path.
  uint64_t live_size = 0;  ///< Responder's live entry count (diagnostics).

  std::string Encode() const;
  static Result<ReplicaProbeReply> Decode(std::string_view bytes);
};

/// A fresh peer (empty path, empty store) asks a sponsor for a place in
/// the trie. The sponsor either splits its own region (joiner takes one
/// half) or adopts the joiner into its replica group.
struct JoinRequest {
  PeerId initiator = net::kNoPeer;

  std::string Encode() const;
  static Result<JoinRequest> Decode(std::string_view bytes);
};

struct JoinReply {
  /// False: sponsor was busy or itself pathless; the joiner retries
  /// against another sponsor later.
  bool accepted = false;
  /// True: the sponsor split its region. `new_path` is the joiner's half
  /// and `entries` holds the live entries of that half. False: replica
  /// adoption — the joiner copies `sponsor_path` and links `replicas`.
  bool split = false;
  Key new_path;      ///< Joiner's path (split mode).
  Key sponsor_path;  ///< Sponsor's (possibly new) path.
  /// Adoption mode: the group the joiner links (sponsor included).
  std::vector<PeerId> replicas;
  RefsBlock refs;  ///< Sponsor's routing snapshot (both modes).
  /// Split mode: live entries of the joiner's half, shipped inline.
  std::vector<Entry> entries;

  std::string Encode() const;
  static Result<JoinReply> Decode(std::string_view bytes);
};

/// An under-protected replica group asks `dst` to become a replica of
/// `path`. Sent by the re-protection guard to ref candidates.
struct RecruitRequest {
  PeerId initiator = net::kNoPeer;
  Key path;
  // The recruiter's routing snapshot: the recruit resets its table when
  // it adopts the region and would otherwise be a routing dead end for
  // every foreign key until the next exchange.
  RefsBlock refs;

  std::string Encode() const;
  static Result<RecruitRequest> Decode(std::string_view bytes);
};

struct RecruitReply {
  bool accepted = false;

  std::string Encode() const;
  static Result<RecruitReply> Decode(std::string_view bytes);
};

/// Membership gossip: "peer `peer` now serves trie path `path`" — sent
/// fire-and-forget after a recruit or adoption so neighbours regain a
/// route into the re-protected region.
struct RefUpdate {
  PeerId peer = net::kNoPeer;
  Key path;

  std::string Encode() const;
  static Result<RefUpdate> Decode(std::string_view bytes);
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_MESSAGES_H_
