#include "net/fault_plane.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/transport.h"
#include "sim/latency.h"
#include "sim/scheduler.h"

namespace unistore {
namespace net {
namespace {

struct Fixture {
  sim::Scheduler sim;
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

  Message Make(PeerId src, PeerId dst, std::string payload = "") {
    Message m;
    m.type = MessageType::kPing;
    m.src = src;
    m.dst = dst;
    m.payload = std::move(payload);
    return m;
  }
};

TEST(FaultPlaneTest, DirectedPartitionIsOneWay) {
  FaultSchedule faults;
  faults.Partition(0, kFaultForever, 0, 1);
  FaultPlane plane(faults);
  EXPECT_TRUE(plane.Partitioned(0, 0, 1));
  EXPECT_FALSE(plane.Partitioned(0, 1, 0));
}

TEST(FaultPlaneTest, PartitionPairCutsBothDirections) {
  FaultSchedule faults;
  faults.PartitionPair(0, kFaultForever, 0, 1);
  FaultPlane plane(faults);
  EXPECT_TRUE(plane.Partitioned(0, 0, 1));
  EXPECT_TRUE(plane.Partitioned(0, 1, 0));
  EXPECT_FALSE(plane.Partitioned(0, 0, 2));
}

TEST(FaultPlaneTest, PartitionHealsOnSchedule) {
  Fixture f(2);
  FaultSchedule faults;
  faults.Partition(/*from=*/0, /*until=*/5000, 0, 1);
  f.transport->SetFaultSchedule(faults);
  f.transport->Send(f.Make(0, 1));  // At t=0: dropped.
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.inboxes[1].empty());
  EXPECT_EQ(f.transport->stats().messages_lost_partition, 1u);
  // `until` is exclusive: a send at exactly t=5000 goes through.
  f.sim.Schedule(5000, [&f] { f.transport->Send(f.Make(0, 1)); });
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.inboxes[1].size(), 1u);
  EXPECT_EQ(f.transport->stats().messages_lost_partition, 1u);
}

TEST(FaultPlaneTest, WildcardPartitionIsolatesPeer) {
  Fixture f(3);
  FaultSchedule faults;
  // Nothing reaches peer 2; peer 2 can still send out.
  faults.Partition(0, kFaultForever, kAnyPeer, 2);
  f.transport->SetFaultSchedule(faults);
  f.transport->Send(f.Make(0, 2));
  f.transport->Send(f.Make(1, 2));
  f.transport->Send(f.Make(2, 0));
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.inboxes[2].empty());
  EXPECT_EQ(f.inboxes[0].size(), 1u);
  EXPECT_EQ(f.transport->stats().messages_lost_partition, 2u);
}

TEST(FaultPlaneTest, AsymmetricDelayAddsBoundedJitter) {
  Fixture f(2, /*latency=*/1000);
  FaultSchedule faults;
  faults.Delay(0, kFaultForever, 0, 1, /*delay_us=*/5000, /*jitter_us=*/300);
  f.transport->SetFaultSchedule(faults);
  for (int i = 0; i < 50; ++i) {
    Fixture g(2, 1000);
    g.transport->SetFaultSchedule(faults);
    g.transport->Send(g.Make(0, 1));
    g.sim.RunUntilIdle();
    ASSERT_EQ(g.inboxes[1].size(), 1u);
    EXPECT_GE(g.sim.Now(), 1000 + 5000);
    EXPECT_LE(g.sim.Now(), 1000 + 5000 + 300);
  }
  // The reverse direction is untouched (asymmetric).
  f.transport->Send(f.Make(1, 0));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.sim.Now(), 1000);
}

TEST(FaultPlaneTest, DuplicateDeliversTwiceAndCounts) {
  Fixture f(2);
  FaultSchedule faults;
  faults.Duplicate(0, kFaultForever, 0, 1, /*probability=*/1.0);
  f.transport->SetFaultSchedule(faults);
  f.transport->Send(f.Make(0, 1, "x"));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.inboxes[1].size(), 2u);
  EXPECT_EQ(f.transport->stats().messages_duplicated, 1u);
  EXPECT_EQ(f.transport->stats().messages_delivered, 2u);
  EXPECT_EQ(f.transport->stats().messages_sent, 1u);
}

TEST(FaultPlaneTest, CorruptionFlipsLeadingBytesAndCounts) {
  Fixture f(2);
  FaultSchedule faults;
  faults.Corrupt(0, kFaultForever, 0, 1, /*probability=*/1.0);
  f.transport->SetFaultSchedule(faults);
  f.transport->Send(f.Make(0, 1, "abcdef"));
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[1].size(), 1u);
  const std::string& payload = f.inboxes[1][0].payload;
  EXPECT_EQ(payload.size(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(payload[i], static_cast<char>("abcdef"[i] ^ 0xFF));
  }
  EXPECT_EQ(payload.substr(4), "ef");
  EXPECT_EQ(f.transport->stats().messages_corrupted, 1u);
  // Empty payloads are never "corrupted" (nothing to garble).
  f.transport->Send(f.Make(0, 1, ""));
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.transport->stats().messages_corrupted, 1u);
}

TEST(FaultPlaneTest, ReorderWindowShufflesDeliveryOrder) {
  Fixture f(2, /*latency=*/1000, /*seed=*/3);
  FaultSchedule faults;
  faults.Reorder(0, kFaultForever, 0, 1, /*window_us=*/50000,
                 /*probability=*/0.5);
  f.transport->SetFaultSchedule(faults);
  for (int i = 0; i < 20; ++i) {
    f.transport->Send(f.Make(0, 1, std::string(1, static_cast<char>(i))));
  }
  f.sim.RunUntilIdle();
  ASSERT_EQ(f.inboxes[1].size(), 20u);
  bool out_of_order = false;
  for (size_t i = 1; i < f.inboxes[1].size(); ++i) {
    if (f.inboxes[1][i].payload < f.inboxes[1][i - 1].payload) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
}

TEST(FaultPlaneTest, ScheduledRunsAreByteIdentical) {
  FaultSchedule faults;
  faults.Partition(2000, 8000, 0, 1)
      .Delay(0, kFaultForever, 1, 0, 3000, 500)
      .Duplicate(0, kFaultForever, 0, 1, 0.3)
      .Corrupt(0, kFaultForever, 1, 0, 0.2);
  auto run = [&faults]() {
    Fixture f(2, 1000, /*seed=*/11);
    f.transport->EnableDeliveryTrace();
    f.transport->SetFaultSchedule(faults);
    for (int i = 0; i < 30; ++i) {
      f.sim.Schedule(i * 500, [&f, i] {
        f.transport->Send(f.Make(0, 1, "ping" + std::to_string(i)));
        f.transport->Send(f.Make(1, 0, "pong" + std::to_string(i)));
      });
    }
    f.sim.RunUntilIdle();
    return f.transport->DeliveryTrace() + f.transport->stats().ToString();
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlaneTest, RuleWindowGatesEffects) {
  FaultRule rule;
  rule.kind = FaultRule::Kind::kPartition;
  rule.from = 100;
  rule.until = 200;
  rule.src = 3;
  rule.dst = 4;
  EXPECT_FALSE(rule.Matches(99, 3, 4));
  EXPECT_TRUE(rule.Matches(100, 3, 4));
  EXPECT_TRUE(rule.Matches(199, 3, 4));
  EXPECT_FALSE(rule.Matches(200, 3, 4));
  EXPECT_FALSE(rule.Matches(150, 4, 3));
  EXPECT_FALSE(rule.Matches(150, 3, 5));
}

}  // namespace
}  // namespace net
}  // namespace unistore
