#include "net/transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "sim/latency.h"
#include "sim/sharded_scheduler.h"
#include "sim/simulation.h"

namespace unistore {
namespace net {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<Transport> transport;
  std::vector<std::vector<Message>> inboxes;

  explicit Fixture(size_t peers, sim::SimTime latency = 1000,
                   uint64_t seed = 7) {
    transport = std::make_unique<Transport>(
        &sim, std::make_unique<sim::ConstantLatency>(latency), seed);
    inboxes.resize(peers);
    for (size_t i = 0; i < peers; ++i) {
      transport->AddPeer([this, i](const Message& m) {
        inboxes[i].push_back(m);
      });
    }
  }

  Message Make(PeerId src, PeerId dst, MessageType type = MessageType::kPing,
               std::string payload = "") {
    Message m;
    m.type = type;
    m.src = src;
    m.dst = dst;
    m.payload = std::move(payload);
    return m;
  }
};

TEST(TransportTest, DeliversWithLatency) {
  Fixture f(2, 2500);
  f.transport->Send(f.Make(0, 1));
  EXPECT_TRUE(f.inboxes[1].empty());
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[1].size(), 1u);
  EXPECT_EQ(f.sim.Now(), 2500);
  EXPECT_EQ(f.inboxes[1][0].src, 0u);
}

TEST(TransportTest, SelfSendWorks) {
  Fixture f(1);
  f.transport->Send(f.Make(0, 0, MessageType::kPing, "self"));
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[0].size(), 1u);
  EXPECT_EQ(f.inboxes[0][0].payload, "self");
}

TEST(TransportTest, DeadPeerDropsMessages) {
  Fixture f(2);
  f.transport->SetAlive(1, false);
  f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.inboxes[1].empty());
  EXPECT_EQ(f.transport->stats().messages_to_dead, 1u);
}

TEST(TransportTest, MessageInFlightToPeerThatDiesIsDropped) {
  Fixture f(2, 1000);
  f.transport->Send(f.Make(0, 1));
  // Peer dies while the message is in flight.
  f.sim.Schedule(500, [&f] { f.transport->SetAlive(1, false); });
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.inboxes[1].empty());
}

TEST(TransportTest, RevivedPeerReceivesAgain) {
  Fixture f(2);
  f.transport->SetAlive(1, false);
  f.transport->SetAlive(1, true);
  f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.inboxes[1].size(), 1u);
}

TEST(TransportTest, LossDropsApproximatelyAtRate) {
  Fixture f(2);
  f.transport->set_loss_probability(0.4);
  for (int i = 0; i < 2000; ++i) f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  double delivered = static_cast<double>(f.inboxes[1].size());
  EXPECT_NEAR(delivered / 2000.0, 0.6, 0.05);
  EXPECT_EQ(f.transport->stats().messages_lost_random + f.inboxes[1].size(),
            2000u);
}

// The drop counters are distinct: random loss, scripted partition drops
// and dead-peer drops each land in their own counter, and total_dropped()
// is their sum.
TEST(TransportTest, DropCountersAreSplitByCause) {
  Fixture f(3);
  // Peer 0 -> 1 is partitioned for the whole run; peer 2 is dead.
  FaultSchedule faults;
  faults.Partition(0, kFaultForever, 0, 1);
  f.transport->SetFaultSchedule(faults);
  f.transport->SetAlive(2, false);
  f.transport->set_loss_probability(1.0);   // Every non-partitioned send.
  f.transport->Send(f.Make(1, 0));          // Random loss.
  f.transport->set_loss_probability(0.0);
  f.transport->Send(f.Make(0, 1));          // Partition drop.
  f.transport->Send(f.Make(1, 2));          // Dead peer: dropped at delivery.
  f.sim.RunUntilIdle();
  const auto& stats = f.transport->stats();
  EXPECT_EQ(stats.messages_lost_random, 1u);
  EXPECT_EQ(stats.messages_lost_partition, 1u);
  EXPECT_EQ(stats.messages_to_dead, 1u);
  EXPECT_EQ(stats.total_dropped(), 3u);
  EXPECT_TRUE(f.inboxes[0].empty());
  EXPECT_TRUE(f.inboxes[1].empty());
  EXPECT_TRUE(f.inboxes[2].empty());
}

TEST(TransportTest, StatsCountBytesAndTypes) {
  Fixture f(2);
  f.transport->Send(f.Make(0, 1, MessageType::kLookup, "12345"));
  f.transport->Send(f.Make(1, 0, MessageType::kLookupReply, ""));
  f.sim.RunUntilIdle();
  const auto& stats = f.transport->stats();
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.messages_delivered, 2u);
  EXPECT_EQ(stats.bytes_sent, 2 * Message::kHeaderBytes + 5);
  EXPECT_EQ(stats.per_type.at(MessageType::kLookup), 1u);
  EXPECT_EQ(stats.per_type.at(MessageType::kLookupReply), 1u);
}

TEST(TransportTest, InvalidSendsAreCountedAndDropped) {
  Fixture f(2);
  f.transport->Send(f.Make(0, 9));   // Unregistered destination.
  f.transport->Send(f.Make(7, 1));   // Unregistered source.
  f.transport->Send(f.Make(0, 1));   // Valid.
  f.sim.RunUntilIdle();
  const auto stats = f.transport->stats();
  EXPECT_EQ(stats.messages_invalid, 2u);
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_EQ(f.inboxes[1].size(), 1u);
}

TEST(TransportTest, StatsSinceIncludesPerTypeAndInvalid) {
  Fixture f(2);
  f.transport->Send(f.Make(0, 1, MessageType::kLookup));
  f.sim.RunUntilIdle();
  TrafficStats before = f.transport->stats();
  f.transport->Send(f.Make(0, 1, MessageType::kLookup));
  f.transport->Send(f.Make(0, 1, MessageType::kBulkInsert, "abc"));
  f.transport->Send(f.Make(1, 0, MessageType::kBulkInsertReply));
  f.transport->Send(f.Make(0, 42));  // Invalid.
  f.sim.RunUntilIdle();
  TrafficStats delta = f.transport->stats().Since(before);
  EXPECT_EQ(delta.messages_sent, 3u);
  EXPECT_EQ(delta.messages_invalid, 1u);
  EXPECT_EQ(delta.per_type.at(MessageType::kLookup), 1u);
  EXPECT_EQ(delta.per_type.at(MessageType::kBulkInsert), 1u);
  EXPECT_EQ(delta.per_type.at(MessageType::kBulkInsertReply), 1u);
  // kPing never sent in the delta window: absent, not zero.
  EXPECT_EQ(delta.per_type.count(MessageType::kPing), 0u);
  EXPECT_EQ(delta.bytes_sent,
            3 * Message::kHeaderBytes + 3);
}

TEST(TrafficStatsTest, MergeSumsCountersAndTypes) {
  TrafficStats a, b;
  a.messages_sent = 3;
  a.per_type[MessageType::kLookup] = 2;
  a.per_type[MessageType::kBulkInsert] = 1;
  b.messages_sent = 4;
  b.messages_invalid = 1;
  b.per_type[MessageType::kLookup] = 5;
  a.Merge(b);
  EXPECT_EQ(a.messages_sent, 7u);
  EXPECT_EQ(a.messages_invalid, 1u);
  EXPECT_EQ(a.per_type.at(MessageType::kLookup), 7u);
  EXPECT_EQ(a.per_type.at(MessageType::kBulkInsert), 1u);
}

// Satellite of the sharding work: latency/loss draws come from the source
// peer's own stream, so interleaving sends of different peers does not
// change any peer's draws.
TEST(TransportTest, PerPeerStreamsAreOrderIndependent) {
  auto deliveries = [](bool interleave) {
    sim::Simulation sim;
    Transport transport(
        &sim, std::make_unique<sim::UniformLatency>(1000, 9000), 77);
    std::vector<std::vector<sim::SimTime>> times(3);
    for (size_t i = 0; i < 3; ++i) {
      transport.AddPeer([&times, &sim](const Message& m) {
        times[m.src].push_back(sim.Now());
      });
    }
    transport.set_loss_probability(0.2);
    // Per-src sequences of sampled latencies (-1 = lost): these depend
    // only on the src's own draw stream, never on interleaving.
    std::vector<std::vector<sim::SimTime>> draws(2);
    auto send = [&](PeerId src) {
      Message m;
      m.type = MessageType::kPing;
      m.src = src;
      m.dst = 2;
      const sim::SimTime start = sim.Now();
      const size_t before = times[src].size();
      transport.Send(m);
      sim.RunUntilIdle();
      draws[src].push_back(times[src].size() > before
                               ? times[src].back() - start
                               : -1);
    };
    if (interleave) {
      for (int i = 0; i < 40; ++i) {
        send(0);
        send(1);
      }
    } else {
      for (int i = 0; i < 40; ++i) send(0);
      for (int i = 0; i < 40; ++i) send(1);
    }
    return draws;
  };
  auto sequential = deliveries(false);
  auto interleaved = deliveries(true);
  EXPECT_EQ(sequential[0], interleaved[0]);
  EXPECT_EQ(sequential[1], interleaved[1]);
  // The loss model really fired somewhere in 80 sends at p=0.2.
  int lost = 0;
  for (const auto& stream : sequential) {
    for (sim::SimTime d : stream) lost += (d < 0);
  }
  EXPECT_GT(lost, 0);
}

// A zero-latency model is clamped to LatencyModel::MinLatency() (1 us):
// delivery still happens, and never undercuts the sharded engine's
// conservative lookahead.
TEST(TransportTest, ZeroLatencyModelIsClampedToFloor) {
  Fixture f(2, /*latency=*/0);
  f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[1].size(), 1u);
  EXPECT_EQ(f.sim.Now(), 1);
}

TEST(TransportTest, ZeroLatencyIsSafeUnderSharding) {
  sim::ShardedScheduler::Options options;
  options.shards = 2;
  options.threads = 1;
  options.lookahead = 1;
  sim::ShardedScheduler sched(options);
  Transport transport(&sched, std::make_unique<sim::ConstantLatency>(0), 1);
  int received = 0;
  transport.AddPeer([](const Message&) {});
  transport.AddPeer([&received](const Message&) { ++received; });
  Message m;
  m.type = MessageType::kPing;
  m.src = 0;
  m.dst = 1;
  transport.Send(m);  // Cross-shard with sampled delay 0: must not abort.
  sched.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

// One fixed schedule replayed on every engine: the per-shard statistics
// slots, merged on read, must add up to exactly what the single-threaded
// engine counts in its one slot — every field, maps included — and the
// delivery trace must not move either.
TEST(TransportTest, StatsAreIdenticalAcrossEngines) {
  static constexpr PeerId kPeers = 8;
  struct Run {
    TrafficStats stats;
    std::string trace;
  };
  auto replay = [](sim::Scheduler* scheduler) {
    Transport transport(
        scheduler, std::make_unique<sim::UniformLatency>(1000, 5000), 21);
    for (PeerId i = 0; i < kPeers; ++i) {
      // Event context: every delivery forwards (same shard on even hops,
      // another shard on odd ones) until the fourth hop, and odd hops
      // count a retry in the executing shard's slot.
      transport.AddPeer([&transport, i](const Message& m) {
        if (m.hops % 2 == 1) transport.CountRetry("event");
        if (m.hops >= 3) return;
        Message next = m;
        next.type = m.hops % 2 == 0 ? MessageType::kPong : MessageType::kPing;
        next.src = i;
        next.dst = m.hops % 2 == 0 ? (i + 4) % kPeers : (i * 3 + 1) % kPeers;
        next.hops = m.hops + 1;
        transport.Send(std::move(next));
      });
    }
    FaultSchedule faults;
    faults.Duplicate(0, kFaultForever, 2, kAnyPeer, 1.0)
        .Corrupt(0, kFaultForever, 3, kAnyPeer, 0.5);
    transport.SetFaultSchedule(faults);
    transport.SetAlive(7, false);
    transport.EnableDeliveryTrace();

    auto send = [&transport](PeerId src, PeerId dst, MessageType type,
                             std::string payload) {
      Message m;
      m.type = type;
      m.src = src;
      m.dst = dst;
      m.payload = std::move(payload);
      transport.Send(std::move(m));
    };
    for (PeerId i = 0; i < kPeers; ++i) {
      const std::string payload = "from-" + std::to_string(i);
      send(i, (i + 1) % kPeers, MessageType::kLookup, payload);  // Cross.
      send(i, (i + 4) % kPeers, MessageType::kPing, payload);    // Same.
    }
    send(0, 99, MessageType::kPing, "");  // Invalid: unregistered dst.
    transport.CountRetry("harness");
    scheduler->RunUntilIdle();
    send(3, 6, MessageType::kLookupReply, std::string(300, 'x'));
    transport.CountRetry("harness");
    scheduler->RunUntilIdle();
    return Run{transport.stats(), transport.DeliveryTrace()};
  };

  sim::Simulation single;
  const Run expected = replay(&single);
  // The schedule really invalidates, duplicates, corrupts, drops at a dead
  // peer and counts retries from both contexts.
  EXPECT_EQ(expected.stats.messages_invalid, 1u);
  EXPECT_GT(expected.stats.messages_duplicated, 0u);
  EXPECT_GT(expected.stats.messages_corrupted, 0u);
  EXPECT_GT(expected.stats.messages_to_dead, 0u);
  EXPECT_EQ(expected.stats.retries_by_policy.at("harness"), 2u);
  EXPECT_GT(expected.stats.retries_by_policy.at("event"), 0u);
  EXPECT_EQ(expected.stats.per_type_max_bytes.at(MessageType::kLookupReply),
            Message::kHeaderBytes + 300);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads == 1 ? "K=4 inline" : "K=4, 4 threads");
    sim::ShardedScheduler::Options options;
    options.shards = 4;
    options.threads = threads;
    options.lookahead = 1000;
    sim::ShardedScheduler sharded(options);
    const Run got = replay(&sharded);
    const TrafficStats& a = expected.stats;
    const TrafficStats& b = got.stats;
    EXPECT_EQ(b.messages_sent, a.messages_sent);
    EXPECT_EQ(b.messages_delivered, a.messages_delivered);
    EXPECT_EQ(b.messages_lost_random, a.messages_lost_random);
    EXPECT_EQ(b.messages_lost_partition, a.messages_lost_partition);
    EXPECT_EQ(b.messages_lost_churn, a.messages_lost_churn);
    EXPECT_EQ(b.messages_to_dead, a.messages_to_dead);
    EXPECT_EQ(b.messages_invalid, a.messages_invalid);
    EXPECT_EQ(b.messages_duplicated, a.messages_duplicated);
    EXPECT_EQ(b.messages_corrupted, a.messages_corrupted);
    EXPECT_EQ(b.bytes_sent, a.bytes_sent);
    EXPECT_EQ(b.retries_by_policy, a.retries_by_policy);
    EXPECT_EQ(b.per_type, a.per_type);
    EXPECT_EQ(b.per_type_bytes, a.per_type_bytes);
    EXPECT_EQ(b.per_type_max_bytes, a.per_type_max_bytes);
    EXPECT_EQ(got.trace, expected.trace);
  }
}

TEST(TransportTest, DeliveryTraceIsStable) {
  Fixture f(2);
  f.transport->EnableDeliveryTrace();
  f.transport->Send(f.Make(0, 1, MessageType::kLookup, "payload"));
  f.transport->Send(f.Make(1, 0, MessageType::kLookupReply));
  f.sim.RunUntilIdle();
  std::string trace = f.transport->DeliveryTrace();
  EXPECT_NE(trace.find("0->1 Lookup"), std::string::npos);
  EXPECT_NE(trace.find("1->0 LookupReply"), std::string::npos);
}

TEST(TransportTest, StatsSinceComputesDelta) {
  Fixture f(2);
  f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  TrafficStats before = f.transport->stats();
  f.transport->Send(f.Make(0, 1));
  f.transport->Send(f.Make(0, 1));
  f.sim.RunUntilIdle();
  TrafficStats delta = f.transport->stats().Since(before);
  EXPECT_EQ(delta.messages_sent, 2u);
  EXPECT_EQ(delta.per_type.at(MessageType::kPing), 2u);
}

TEST(RpcTest, RequestResponseRoundTrip) {
  Fixture f(2);
  RpcManager client(0, f.transport.get());
  // Peer 1 echoes requests as pongs.
  f.transport->SetHandler(1, [&f](const Message& m) {
    Message reply;
    reply.type = MessageType::kPong;
    reply.src = 1;
    reply.dst = m.src;
    reply.request_id = m.request_id;
    reply.payload = "echo:" + m.payload;
    f.transport->Send(std::move(reply));
  });
  // Client routes pongs into the manager.
  f.transport->SetHandler(0, [&client](const Message& m) {
    client.HandleReply(m);
  });

  Status got_status = Status::Internal("unset");
  std::string got_payload;
  client.SendRequest(1, MessageType::kPing, "hi", 10000,
                     [&](const Status& s, const Message& m) {
                       got_status = s;
                       got_payload = m.payload;
                     });
  f.sim.RunUntilIdle();
  EXPECT_TRUE(got_status.ok());
  EXPECT_EQ(got_payload, "echo:hi");
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcTest, TimeoutFiresWhenNoReply) {
  Fixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [](const Message&) {});  // Black hole.

  Status got_status;
  client.SendRequest(1, MessageType::kPing, "", 5000,
                     [&](const Status& s, const Message&) { got_status = s; });
  f.sim.RunUntilIdle();
  EXPECT_TRUE(got_status.IsTimeout());
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcTest, LateReplyAfterTimeoutIsIgnored) {
  Fixture f(2, /*latency=*/8000);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(1, [&f](const Message& m) {
    Message reply;
    reply.type = MessageType::kPong;
    reply.src = 1;
    reply.dst = m.src;
    reply.request_id = m.request_id;
    f.transport->Send(std::move(reply));
  });
  int calls = 0;
  Status first_status;
  f.transport->SetHandler(0, [&client](const Message& m) {
    client.HandleReply(m);
  });
  client.SendRequest(1, MessageType::kPing, "", 5000,
                     [&](const Status& s, const Message&) {
                       ++calls;
                       first_status = s;
                     });
  f.sim.RunUntilIdle();
  EXPECT_EQ(calls, 1);  // Exactly once: the timeout.
  EXPECT_TRUE(first_status.IsTimeout());
}

TEST(RpcTest, CancelSuppressesCallback) {
  Fixture f(2);
  RpcManager client(0, f.transport.get());
  f.transport->SetHandler(0, [&client](const Message& m) {
    client.HandleReply(m);
  });
  int calls = 0;
  uint64_t id = client.SendRequest(
      1, MessageType::kPing, "", 5000,
      [&](const Status&, const Message&) { ++calls; });
  client.Cancel(id);
  f.sim.RunUntilIdle();
  EXPECT_EQ(calls, 0);
}

TEST(RpcTest, FailAllFlushesPending) {
  Fixture f(3);
  RpcManager client(0, f.transport.get());
  std::vector<Status> results;
  client.SendRequest(1, MessageType::kPing, "", 0,
                     [&](const Status& s, const Message&) {
                       results.push_back(s);
                     });
  client.SendRequest(2, MessageType::kPing, "", 0,
                     [&](const Status& s, const Message&) {
                       results.push_back(s);
                     });
  client.FailAll(Status::Unavailable("shutdown"));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].IsUnavailable());
  EXPECT_TRUE(results[1].IsUnavailable());
  EXPECT_EQ(client.pending_count(), 0u);
}

TEST(RpcTest, ReplyToCarriesHops) {
  Fixture f(2);
  RpcManager server(1, f.transport.get());
  server.ReplyTo(0, 77, 5, MessageType::kPong, "data");
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[0].size(), 1u);
  EXPECT_EQ(f.inboxes[0][0].request_id, 77u);
  EXPECT_EQ(f.inboxes[0][0].hops, 5u);
}

}  // namespace
}  // namespace net
}  // namespace unistore
