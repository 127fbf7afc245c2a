#include "net/message.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "pgrid/messages.h"
#include "sim/latency.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {
namespace {

// --- Message ---------------------------------------------------------------

TEST(MessageTest, TypeNamesAreUniqueAndNonEmpty) {
  const MessageType all[] = {
      MessageType::kPing,          MessageType::kPong,
      MessageType::kLookup,        MessageType::kLookupReply,
      MessageType::kBulkInsert,    MessageType::kBulkInsertReply,
      MessageType::kRangeSeq,      MessageType::kRangeSeqReply,
      MessageType::kRangeShower,   MessageType::kRangeShowerReply,
      MessageType::kExchange,      MessageType::kExchangeReply,
      MessageType::kReplicaPush,   MessageType::kManifestPull,
      MessageType::kManifestPullReply, MessageType::kRunFetch,
      MessageType::kRunFetchReply, MessageType::kPlanExec,
      MessageType::kPlanExecReply, MessageType::kStatsGossip,
  };
  std::set<std::string> names;
  for (MessageType type : all) {
    std::string name(MessageTypeName(type));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown") << "missing case for type "
                               << static_cast<int>(type);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(all));
}

TEST(MessageTest, UnknownTypeNameFallsBack) {
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(999)), "Unknown");
}

TEST(MessageTest, WireSizeCountsHeaderAndPayload) {
  Message m;
  m.type = MessageType::kPing;
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes);
  m.payload = std::string(123, 'x');
  EXPECT_EQ(m.WireSize(), Message::kHeaderBytes + 123);
}

TEST(MessageTest, DefaultsAreSentinel) {
  Message m;
  EXPECT_EQ(m.src, kNoPeer);
  EXPECT_EQ(m.dst, kNoPeer);
  EXPECT_EQ(m.request_id, 0u);
  EXPECT_EQ(m.hops, 0u);
}

// --- Payload serialization (common/codec.h is the wire format of every
// --- message body) ---------------------------------------------------------

TEST(MessageTest, PayloadRoundTripsThroughCodec) {
  BufferWriter w;
  w.PutU32(42);
  w.PutVarint(1u << 20);
  w.PutString("route/to/key");
  w.PutBool(true);
  w.PutDouble(2.5);

  Message m;
  m.type = MessageType::kLookup;
  m.payload = w.Release();

  BufferReader r(m.payload);
  ASSERT_TRUE(r.GetU32().ok());
  auto varint = r.GetVarint();
  ASSERT_TRUE(varint.ok());
  EXPECT_EQ(*varint, 1u << 20);
  auto s = r.GetString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "route/to/key");
  auto b = r.GetBool();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  auto d = r.GetDouble();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(MessageTest, TruncatedPayloadDecodeFailsCleanly) {
  BufferWriter w;
  w.PutString("a long enough payload string");
  std::string full = w.Release();

  // Every strict prefix must fail to decode without crashing.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BufferReader r(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(r.GetString().ok()) << "prefix of " << cut << " bytes";
  }
}

TEST(MessageTest, BulkInsertReplyRoundTripsWithAndWithoutAdvert) {
  pgrid::BulkInsertReply reply;
  reply.peer = 7;
  reply.stored = {0, 3, 300};
  reply.dead_ends = {5};
  const std::string bare = reply.Encode();
  reply.advert.replicas = {2, 7, 11};
  reply.advert.path = pgrid::Key::FromBits("0110");
  const std::string advertised = reply.Encode();
  // An empty advert costs its zero count; a full one its ids and path.
  EXPECT_EQ(advertised.size(), bare.size() + 3 * 4 + 2);

  for (const std::string& payload : {bare, advertised}) {
    Message m;
    m.type = MessageType::kBulkInsertReply;
    m.payload = payload;
    auto decoded = pgrid::BulkInsertReply::Decode(m.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->peer, 7u);
    EXPECT_EQ(decoded->stored, reply.stored);
    EXPECT_EQ(decoded->dead_ends, reply.dead_ends);
    if (payload == bare) {
      EXPECT_TRUE(decoded->advert.empty());
    } else {
      EXPECT_EQ(decoded->advert.replicas, reply.advert.replicas);
      EXPECT_EQ(decoded->advert.path, reply.advert.path);
    }
  }
}

// --- RpcManager ------------------------------------------------------------

struct RpcFixture {
  sim::Scheduler sim;
  std::unique_ptr<Transport> transport;
  std::vector<std::vector<Message>> inboxes;

  explicit RpcFixture(size_t peers, sim::SimTime latency = 1000) {
    transport = std::make_unique<Transport>(
        &sim, std::make_unique<sim::ConstantLatency>(latency), /*seed=*/7);
    inboxes.resize(peers);
    for (size_t i = 0; i < peers; ++i) {
      transport->AddPeer(
          [this, i](const Message& m) { inboxes[i].push_back(m); });
    }
  }
};

TEST(RpcManagerTest, RequestIdsAreUniqueAndMonotone) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  uint64_t a = client.SendRequest(1, MessageType::kPing, "", 0,
                                  [](const Status&, const Message&) {});
  uint64_t b = client.SendRequest(1, MessageType::kPing, "", 0,
                                  [](const Status&, const Message&) {});
  uint64_t c = client.SendRequest(1, MessageType::kPing, "", 0,
                                  [](const Status&, const Message&) {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(client.pending_count(), 3u);
}

TEST(RpcManagerTest, ReplyCorrelatesWithRequestAndIncrementsHops) {
  RpcFixture f(2);
  RpcManager server(1, f.transport.get());

  Message request;
  request.type = MessageType::kLookup;
  request.src = 0;
  request.dst = 1;
  request.request_id = 99;
  request.hops = 3;

  server.Reply(request, MessageType::kLookupReply, "found");
  f.sim.RunUntilIdle();

  ASSERT_EQ(f.inboxes[0].size(), 1u);
  const Message& reply = f.inboxes[0][0];
  EXPECT_EQ(reply.type, MessageType::kLookupReply);
  EXPECT_EQ(reply.src, 1u);
  EXPECT_EQ(reply.dst, 0u);
  EXPECT_EQ(reply.request_id, 99u);
  EXPECT_EQ(reply.hops, 4u);  // Forwarding step counted.
  EXPECT_EQ(reply.payload, "found");
}

TEST(RpcManagerTest, HandleReplyRejectsUnknownId) {
  RpcFixture f(1);
  RpcManager client(0, f.transport.get());
  Message stray;
  stray.type = MessageType::kPong;
  stray.request_id = 12345;
  EXPECT_FALSE(client.HandleReply(stray));
}

TEST(RpcManagerTest, ZeroTimeoutNeverFires) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [](const Message&) {});  // Black hole.

  int calls = 0;
  client.SendRequest(1, MessageType::kPing, "", /*timeout=*/0,
                     [&](const Status&, const Message&) { ++calls; });
  f.sim.RunFor(1'000'000'000);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(client.pending_count(), 1u);
}

TEST(RpcManagerTest, TimeoutReportsRequestId) {
  RpcFixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [](const Message&) {});  // Black hole.

  Status got;
  uint64_t id = client.SendRequest(
      1, MessageType::kPing, "", /*timeout=*/500,
      [&](const Status& s, const Message&) { got = s; });
  f.sim.RunUntilIdle();
  ASSERT_TRUE(got.IsTimeout());
  EXPECT_NE(got.ToString().find(std::to_string(id)), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace unistore
