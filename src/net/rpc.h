// Request/response correlation with timeouts on top of Transport.
#ifndef UNISTORE_NET_RPC_H_
#define UNISTORE_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {

/// \brief Per-peer RPC bookkeeping: issues request ids, dispatches matching
/// responses, and fires Status::Timeout when a reply does not arrive.
///
/// Owned by each protocol endpoint (e.g. pgrid::Peer). The endpoint routes
/// *reply*-type messages into HandleReply(); request-type messages go to its
/// own protocol handlers.
///
/// Forwarding protocols (key-set lookups, range scans) keep the header
/// `request_id` stable along the chain and carry the initiator id in the
/// payload; the answering peer replies to the initiator directly with
/// ReplyTo(), and the initiator matches the reply against its own
/// per-operation state.
class RpcManager {
 public:
  /// Called exactly once per request with (status, reply). On timeout or
  /// failure the message reference is a dummy and must be ignored.
  using ReplyCallback = std::function<void(const Status&, const Message&)>;

  /// Health observer: fired with (peer, false) when a request toward a
  /// known destination times out, and (peer, true) when any reply arrives
  /// from `peer`. Feeds the owner's suspicion tracker (DESIGN.md §10).
  using PeerObserver = std::function<void(PeerId peer, bool ok)>;

  RpcManager(PeerId self, Transport* transport);

  /// Sends a request and registers `callback`. `timeout` <= 0 disables the
  /// timer (the callback then only fires on a reply or FailAll); a reply
  /// or FailAll cancels it.
  /// Returns the assigned request id.
  uint64_t SendRequest(PeerId dst, MessageType type, std::string payload,
                       sim::SimTime timeout, ReplyCallback callback);

  /// Sends a reply correlated with `request`: dst = request.src, the
  /// request id and hop count are carried over (hops + 1).
  void Reply(const Message& request, MessageType type, std::string payload);

  /// Sends a reply to an explicit destination with an explicit request id —
  /// the terminal step of a forwarding chain.
  void ReplyTo(PeerId dst, uint64_t request_id, uint32_t hops,
               MessageType type, std::string payload);

  /// Routes an incoming reply message to its pending callback. Returns
  /// false if no pending request matches (late reply after timeout).
  bool HandleReply(const Message& msg);

  /// Installs the health observer (may be empty to disable).
  void set_peer_observer(PeerObserver observer) {
    observer_ = std::move(observer);
  }

  /// Fails all pending requests with the given status (peer shutdown).
  void FailAll(const Status& status);

  size_t pending_count() const { return pending_.size(); }

 private:
  struct Pending {
    ReplyCallback callback;
    PeerId dst = kNoPeer;  ///< Known destination, for timeout attribution.
    sim::EventId timer = sim::kNoEvent;
  };

  void OnTimeout(uint64_t request_id, sim::SimTime timeout);

  PeerId self_;
  Transport* transport_;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, Pending> pending_;
  PeerObserver observer_;
};

}  // namespace net
}  // namespace unistore

#endif  // UNISTORE_NET_RPC_H_
