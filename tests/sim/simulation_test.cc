#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "sim/latency.h"

namespace unistore {
namespace sim {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Scheduler sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulationTest, EqualTimesFireInFifoOrder) {
  Scheduler sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Equal timestamps fire by (domain, seq), not in scheduling order: peer
// domains by id, the harness domain last, and FIFO within one domain even
// for an event scheduled from inside another event.
TEST(SimulationTest, EqualTimesFireInCanonicalDomainOrder) {
  Scheduler sim;
  std::vector<int> order;
  sim.ScheduleAt(40, [&] { order.push_back(99); });
  sim.ScheduleEvent(40, 5, [&] { order.push_back(5); });
  sim.ScheduleEvent(40, 3, [&] { order.push_back(3); });
  sim.ScheduleEvent(10, 3, [&] {
    order.push_back(1);
    sim.ScheduleEvent(40, 3, [&] { order.push_back(4); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 5, 99}));
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Scheduler sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Schedule(1, [&] { ++fired; });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 2);
}

TEST(SimulationTest, RunForStopsAtDeadline) {
  Scheduler sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Schedule(30, [&] { ++fired; });
  sim.RunFor(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(SimulationTest, RunForAdvancesClockWhenIdle) {
  Scheduler sim;
  sim.RunFor(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulationTest, RunUntilPredicate) {
  Scheduler sim;
  int counter = 0;
  for (int i = 1; i <= 100; ++i) {
    sim.Schedule(i, [&] { ++counter; });
  }
  bool reached = sim.RunUntil([&] { return counter == 42; });
  EXPECT_TRUE(reached);
  EXPECT_EQ(counter, 42);
  EXPECT_EQ(sim.Now(), 42);
}

TEST(SimulationTest, RunUntilReturnsFalseWhenDrained) {
  Scheduler sim;
  sim.Schedule(1, [] {});
  bool reached = sim.RunUntil([] { return false; });
  EXPECT_FALSE(reached);
}

TEST(SimulationTest, ProcessedEventCount) {
  Scheduler sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 7u);
}

TEST(SimulationTest, CancelledEventNeverRuns) {
  Scheduler sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  const EventId dead = sim.Schedule(20, [&] { order.push_back(2); });
  sim.Schedule(30, [&] { order.push_back(3); });
  const EventId last = sim.Schedule(40, [&] { order.push_back(4); });
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.Cancel(dead);
  sim.Cancel(last);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.RunUntilIdle(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  // The clock stops at the last event that ran, not at a cancelled one.
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.processed_events(), 2u);
}

TEST(SimulationTest, CancelFromInsideAnEvent) {
  Scheduler sim;
  std::vector<int> order;
  EventId timer = kNoEvent;
  sim.ScheduleAfter(5, 3, [&] {
    order.push_back(1);
    sim.Cancel(timer);
  });
  timer = sim.ScheduleAfter(10, 3, [&] { order.push_back(2); });
  sim.ScheduleAfter(15, 3, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.Now(), 15);
}

TEST(SimulationTest, CancelOfAFiredOrUnknownIdDoesNothing) {
  Scheduler sim;
  int fired = 0;
  const EventId done = sim.Schedule(1, [&] { ++fired; });
  sim.RunUntilIdle();
  // The slot of `done` is reused by the next event; its old id must not
  // cancel the new tenant.
  sim.Schedule(2, [&] { ++fired; });
  sim.Cancel(done);
  sim.Cancel(done);
  sim.Cancel(kNoEvent);
  sim.Cancel(EventId{12345} << 32 | 7);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 3);
  EXPECT_EQ(sim.processed_events(), 2u);
}

TEST(SimulationTest, RunUntilIdleOverCancelledEventsKeepsTheClock) {
  Scheduler sim;
  sim.RunFor(100);
  std::vector<EventId> ids;
  for (int i = 1; i <= 5; ++i) ids.push_back(sim.Schedule(i * 1000, [] {}));
  for (EventId id : ids) sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.RunUntilIdle(), 0u);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.processed_events(), 0u);
}

// Cancelling from the middle of a large queue keeps the canonical order
// of everything left (the heap removal sifts either way).
TEST(SimulationTest, CancelKeepsCanonicalOrder) {
  Scheduler sim;
  Rng rng(7);
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<std::pair<SimTime, int>> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const SimTime when = static_cast<SimTime>(rng.NextBounded(50));
    ids.push_back(sim.ScheduleAt(when, [&order, &sim, i] {
      order.emplace_back(sim.Now(), i);
    }));
    expected.emplace_back(when, i);
  }
  std::vector<std::pair<SimTime, int>> kept;
  for (int i = 0; i < 500; ++i) {
    if (i % 3 == 0) {
      sim.Cancel(ids[i]);
    } else {
      kept.push_back(expected[i]);
    }
  }
  // Harness events order by (when, seq): seq is the scheduling order.
  std::stable_sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, kept);
}

TEST(LatencyTest, ConstantModel) {
  ConstantLatency model(1500);
  Rng rng(1);
  EXPECT_EQ(model.Sample(0, 1, &rng), 1500);
  EXPECT_EQ(model.Sample(5, 5, &rng), 1500);
}

TEST(LatencyTest, UniformModelStaysInRange) {
  UniformLatency model(100, 200);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    SimTime d = model.Sample(0, 1, &rng);
    EXPECT_GE(d, 100);
    EXPECT_LE(d, 200);
  }
}

TEST(LatencyTest, WanBaseDelayIsSymmetricAndStable) {
  WanLatency model;
  EXPECT_EQ(model.BaseDelay(3, 9), model.BaseDelay(9, 3));
  EXPECT_EQ(model.BaseDelay(3, 9), model.BaseDelay(3, 9));
}

TEST(LatencyTest, WanPairsDiffer) {
  WanLatency model;
  // Some pair should differ from another (heavy-tailed base delays).
  bool found_different = false;
  SimTime first = model.BaseDelay(0, 1);
  for (NodeId n = 2; n < 20 && !found_different; ++n) {
    found_different = (model.BaseDelay(0, n) != first);
  }
  EXPECT_TRUE(found_different);
}

TEST(LatencyTest, WanMedianIsTensOfMilliseconds) {
  WanLatency model;
  Rng rng(3);
  SampleStats stats;
  for (NodeId a = 0; a < 40; ++a) {
    for (NodeId b = a + 1; b < 40; ++b) {
      stats.Add(static_cast<double>(model.BaseDelay(a, b)));
    }
  }
  // Lognormal(mu=10.6, sigma=0.6): median = e^10.6 ~= 40 ms.
  EXPECT_GT(stats.Percentile(50), 20.0 * kMicrosPerMilli);
  EXPECT_LT(stats.Percentile(50), 80.0 * kMicrosPerMilli);
}

TEST(LatencyTest, WanRespectsFloor) {
  WanLatency::Options opts;
  opts.min_us = 5000;
  WanLatency model(opts);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(model.Sample(1, 2, &rng), 5000);
  }
}

}  // namespace
}  // namespace sim
}  // namespace unistore
