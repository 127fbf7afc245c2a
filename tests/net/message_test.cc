#include "net/message.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "sim/latency.h"
#include "sim/simulation.h"

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

// --- RpcManager ------------------------------------------------------------

struct RpcFixture {
  sim::Simulation sim;
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
  uint64_t c = client.RegisterPending(0, [](const Status&, const Message&) {});
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

TEST(RpcManagerTest, RegisterPendingMatchesFanOutReply) {
  // A forwarding chain: the initiator registers one logical id, fans a
  // message through peer 1, and the terminal peer 2 answers with ReplyTo().
  RpcFixture f(3);
  RpcManager initiator(0, f.transport.get());
  RpcManager terminal(2, f.transport.get());

  Status got = Status::Internal("unset");
  std::string payload;
  uint64_t id = initiator.RegisterPending(
      /*timeout=*/0, [&](const Status& s, const Message& m) {
        got = s;
        payload = m.payload;
      });

  f.transport->SetHandler(0, [&initiator](const Message& m) {
    initiator.HandleReply(m);
  });
  // Peer 1 forwards to peer 2, keeping the id stable along the chain.
  f.transport->SetHandler(1, [&f](const Message& m) {
    Message fwd = m;
    fwd.src = 1;
    fwd.dst = 2;
    fwd.hops = m.hops + 1;
    f.transport->Send(std::move(fwd));
  });
  f.transport->SetHandler(2, [&terminal](const Message& m) {
    terminal.ReplyTo(/*dst=*/0, m.request_id, m.hops, MessageType::kPong,
                     "terminal");
  });

  Message m;
  m.type = MessageType::kPing;
  m.src = 0;
  m.dst = 1;
  m.request_id = id;
  f.transport->Send(std::move(m));
  f.sim.RunUntilIdle();

  EXPECT_TRUE(got.ok());
  EXPECT_EQ(payload, "terminal");
  EXPECT_EQ(initiator.pending_count(), 0u);
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
