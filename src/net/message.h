// Wire message: the unit of communication between peers.
#ifndef UNISTORE_NET_MESSAGE_H_
#define UNISTORE_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace unistore {
namespace net {

/// Peer identifier (dense, assigned by the harness at creation).
using PeerId = uint32_t;

/// Sentinel for "no peer".
constexpr PeerId kNoPeer = 0xFFFFFFFF;

/// All protocol message types, across layers. Central registry so that the
/// transport can report per-type traffic statistics.
enum class MessageType : uint16_t {
  // -- P-Grid overlay layer ------------------------------------------------
  kPing = 1,
  kPong = 2,
  kLookup = 10,          ///< Exact lookup of a key set, split per next hop.
  kLookupReply = 11,
  kBulkInsert = 16,      ///< Routed entry batch, split per next hop.
  kBulkInsertReply = 17,
  kRangeSeq = 20,        ///< Sequential range scan (min-first walk).
  kRangeSeqReply = 21,
  kRangeShower = 22,     ///< Parallel "shower" range multicast.
  kRangeShowerReply = 23,
  kExchange = 30,        ///< Pairwise construction / refinement.
  kExchangeReply = 31,
  kReplicaPush = 40,     ///< Rumor-spreading update push.
  kManifestPull = 41,    ///< Anti-entropy: request a replica's run manifest.
  kManifestPullReply = 42,  ///< Run summaries (id, entry count, checksum).
  kRunFetch = 43,        ///< Fetch one chunk of a missing run's entries.
  kRunFetchReply = 44,   ///< Checksummed chunk of run (or memtable) entries.
  // -- Peer lifecycle & replica re-protection (DESIGN.md §11) ---------------
  kReplicaProbe = 45,    ///< Failure detector: confirm a replica is up.
  kReplicaProbeReply = 46,  ///< Carries the responder's current path.
  kJoin = 47,            ///< Fresh peer asks a sponsor for a place in the trie.
  kJoinReply = 48,       ///< Split half (path + entries) or replica adoption.
  kRecruit = 49,         ///< Under-protected group recruits a new replica.
  kRecruitReply = 70,    ///< Accept (candidate adopted the path) or decline.
  kRefUpdate = 71,       ///< Membership gossip: "peer P now serves path π".
  // -- Query processing layer ----------------------------------------------
  kPlanExec = 50,        ///< Mutant query plan envelope.
  kPlanExecReply = 51,   ///< Terminal (walk-ended) envelope reply.
  kPlanExecPartial = 52, ///< Streamed partial reply chunk of an envelope walk.
  kStatsGossip = 60,     ///< Cost-model statistics dissemination.
};

std::string_view MessageTypeName(MessageType type);

/// \brief One message on the (simulated) wire.
///
/// `payload` carries the encoded request/response body (common/codec.h).
/// `hops` counts overlay forwarding steps for this logical operation; a
/// forwarding peer copies the message and increments it, so replies can
/// report the route length back to the initiator.
struct Message {
  MessageType type;
  PeerId src = kNoPeer;
  PeerId dst = kNoPeer;
  uint64_t request_id = 0;
  uint32_t hops = 0;
  std::string payload;

  /// Wire size in bytes (header approximation + payload).
  size_t WireSize() const { return kHeaderBytes + payload.size(); }

  static constexpr size_t kHeaderBytes = 2 + 4 + 4 + 8 + 4;
};

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_MESSAGE_H_
