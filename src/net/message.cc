#include "net/message.h"

namespace unistore {
namespace net {

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPing: return "Ping";
    case MessageType::kPong: return "Pong";
    case MessageType::kLookup: return "Lookup";
    case MessageType::kLookupReply: return "LookupReply";
    case MessageType::kBulkInsert: return "BulkInsert";
    case MessageType::kBulkInsertReply: return "BulkInsertReply";
    case MessageType::kRangeSeq: return "RangeSeq";
    case MessageType::kRangeSeqReply: return "RangeSeqReply";
    case MessageType::kRangeShower: return "RangeShower";
    case MessageType::kRangeShowerReply: return "RangeShowerReply";
    case MessageType::kExchange: return "Exchange";
    case MessageType::kExchangeReply: return "ExchangeReply";
    case MessageType::kReplicaPush: return "ReplicaPush";
    case MessageType::kManifestPull: return "ManifestPull";
    case MessageType::kManifestPullReply: return "ManifestPullReply";
    case MessageType::kRunFetch: return "RunFetch";
    case MessageType::kRunFetchReply: return "RunFetchReply";
    case MessageType::kReplicaProbe: return "ReplicaProbe";
    case MessageType::kReplicaProbeReply: return "ReplicaProbeReply";
    case MessageType::kJoin: return "Join";
    case MessageType::kJoinReply: return "JoinReply";
    case MessageType::kRecruit: return "Recruit";
    case MessageType::kRecruitReply: return "RecruitReply";
    case MessageType::kRefUpdate: return "RefUpdate";
    case MessageType::kPlanExec: return "PlanExec";
    case MessageType::kPlanExecReply: return "PlanExecReply";
    case MessageType::kPlanExecPartial: return "PlanExecPartial";
    case MessageType::kStatsGossip: return "StatsGossip";
  }
  return "Unknown";
}

}  // namespace net
}  // namespace unistore
