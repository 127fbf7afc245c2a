#include "net/rpc.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace unistore {
namespace net {

RpcManager::RpcManager(PeerId self, Transport* transport)
    : self_(self), transport_(transport) {
  UNISTORE_CHECK(transport_ != nullptr);
}

uint64_t RpcManager::SendRequest(PeerId dst, MessageType type,
                                 std::string payload, sim::SimTime timeout,
                                 ReplyCallback callback) {
  const uint64_t id = next_request_id_++;
  // `dst` attributes a timeout to its peer (suspicion).
  Pending& pending = pending_[id];
  pending.callback = std::move(callback);
  pending.dst = dst;
  if (timeout > 0) {
    pending.timer = transport_->scheduler()->ScheduleAfter(
        timeout, self_, [this, id, timeout]() { OnTimeout(id, timeout); });
  }
  Message msg;
  msg.type = type;
  msg.src = self_;
  msg.dst = dst;
  msg.request_id = id;
  msg.payload = std::move(payload);
  transport_->Send(std::move(msg));
  return id;
}

void RpcManager::OnTimeout(uint64_t request_id, sim::SimTime timeout) {
  // Still pending: a reply or FailAll would have cancelled this timer.
  auto it = pending_.find(request_id);
  ReplyCallback cb = std::move(it->second.callback);
  const PeerId dst = it->second.dst;
  pending_.erase(it);
  if (observer_ && dst != kNoPeer) observer_(dst, /*ok=*/false);
  Message dummy;
  cb(Status::Timeout("request ", request_id, " timed out after ", timeout,
                     "us"),
     dummy);
}

void RpcManager::Reply(const Message& request, MessageType type,
                       std::string payload) {
  ReplyTo(request.src, request.request_id, request.hops + 1, type,
          std::move(payload));
}

void RpcManager::ReplyTo(PeerId dst, uint64_t request_id, uint32_t hops,
                         MessageType type, std::string payload) {
  Message msg;
  msg.type = type;
  msg.src = self_;
  msg.dst = dst;
  msg.request_id = request_id;
  msg.hops = hops;
  msg.payload = std::move(payload);
  transport_->Send(std::move(msg));
}

bool RpcManager::HandleReply(const Message& msg) {
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) {
    UNISTORE_LOG(kDebug) << "peer " << self_ << ": late/unknown reply req="
                         << msg.request_id << " type "
                         << MessageTypeName(msg.type);
    return false;
  }
  ReplyCallback cb = std::move(it->second.callback);
  transport_->scheduler()->Cancel(it->second.timer);
  pending_.erase(it);
  if (observer_) observer_(msg.src, /*ok=*/true);
  cb(Status::OK(), msg);
  return true;
}

void RpcManager::FailAll(const Status& status) {
  // Callbacks may issue new requests; drain on a copy.
  std::vector<ReplyCallback> callbacks;
  callbacks.reserve(pending_.size());
  for (auto& [id, p] : pending_) {
    transport_->scheduler()->Cancel(p.timer);
    callbacks.push_back(std::move(p.callback));
  }
  pending_.clear();
  Message dummy;
  for (auto& cb : callbacks) cb(status, dummy);
}

}  // namespace net
}  // namespace unistore
