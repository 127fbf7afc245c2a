// Property tests of the envelope/reply codecs (DESIGN.md §4): random
// envelopes round-trip exactly, and truncated and corrupted buffers return
// errors (never crash). Plus the pure pieces of the batched executor:
// range splitting and the EnvelopeCoordinator state machine.
#include "exec/envelope.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/envelope_coordinator.h"
#include "pgrid/ophash.h"
#include "triple/index.h"

namespace unistore {
namespace exec {
namespace {

using triple::Value;

// --- Random generators (fixed seed: the suite is deterministic) -------------

Value RandomValue(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return Value::Int(rng->NextInt(-1000, 1000));
    case 1:
      return Value::Real(rng->NextDouble() * 100.0);
    case 2: {
      std::string s;
      const size_t len = rng->NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBounded(26)));
      }
      return Value::String(std::move(s));
    }
    default:
      return Value::Null();
  }
}

vql::Term RandomTerm(Rng* rng) {
  if (rng->NextBounded(2) == 0) {
    return vql::Term::Var("v" + std::to_string(rng->NextBounded(8)));
  }
  return vql::Term::Lit(RandomValue(rng));
}

Binding RandomBinding(Rng* rng) {
  Binding b;
  const size_t vars = rng->NextBounded(4);
  for (size_t i = 0; i < vars; ++i) {
    b["x" + std::to_string(rng->NextBounded(6))] = RandomValue(rng);
  }
  return b;
}

std::vector<Binding> RandomBindings(Rng* rng, size_t max) {
  std::vector<Binding> out(rng->NextBounded(max + 1));
  for (auto& b : out) b = RandomBinding(rng);
  return out;
}

pgrid::Key RandomDataKey(Rng* rng) {
  std::string bits;
  for (size_t i = 0; i < pgrid::kKeyBits; ++i) {
    bits.push_back(rng->NextBounded(2) ? '1' : '0');
  }
  return pgrid::Key::FromBits(bits);
}

PlanEnvelope RandomEnvelope(Rng* rng) {
  PlanEnvelope env;
  env.initiator = static_cast<net::PeerId>(rng->NextBounded(1000));
  env.walk_id = rng->Next();
  env.branch = static_cast<uint32_t>(rng->NextBounded(8));
  env.chunk_id = static_cast<uint32_t>(rng->NextBounded(6));
  env.pattern.subject = RandomTerm(rng);
  env.pattern.predicate = RandomTerm(rng);
  env.pattern.object = RandomTerm(rng);
  pgrid::Key a = RandomDataKey(rng);
  pgrid::Key b = RandomDataKey(rng);
  env.remaining = a < b ? pgrid::KeyRange{a, b} : pgrid::KeyRange{b, a};
  env.bindings = RandomBindings(rng, 5);
  return env;
}

EnvelopeReply RandomReply(Rng* rng) {
  EnvelopeReply reply;
  reply.status_code = static_cast<uint8_t>(rng->NextBounded(12));
  if (reply.status_code != 0) reply.error = "synthetic failure";
  reply.kind = rng->NextBounded(2) ? EnvelopeReply::Kind::kPartial
                                   : EnvelopeReply::Kind::kTerminal;
  reply.origin = static_cast<net::PeerId>(rng->NextBounded(1000));
  reply.walk_id = rng->Next();
  reply.branch = static_cast<uint32_t>(rng->NextBounded(8));
  reply.chunk_id = static_cast<uint32_t>(rng->NextBounded(6));
  if (rng->NextBounded(2)) {
    pgrid::Key a = RandomDataKey(rng);
    pgrid::Key b = RandomDataKey(rng);
    reply.covered_lo = a < b ? a : b;
    reply.covered_hi = a < b ? b : a;
  }
  reply.results = RandomBindings(rng, 5);
  return reply;
}

void ExpectEnvelopesEqual(const PlanEnvelope& a, const PlanEnvelope& b) {
  EXPECT_EQ(a.initiator, b.initiator);
  EXPECT_EQ(a.walk_id, b.walk_id);
  EXPECT_EQ(a.branch, b.branch);
  EXPECT_EQ(a.chunk_id, b.chunk_id);
  EXPECT_EQ(a.pattern.ToString(), b.pattern.ToString());
  EXPECT_EQ(a.remaining.lo, b.remaining.lo);
  EXPECT_EQ(a.remaining.hi, b.remaining.hi);
  EXPECT_EQ(a.bindings, b.bindings);
}

void ExpectRepliesEqual(const EnvelopeReply& a, const EnvelopeReply& b) {
  EXPECT_EQ(a.status_code, b.status_code);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.walk_id, b.walk_id);
  EXPECT_EQ(a.branch, b.branch);
  EXPECT_EQ(a.chunk_id, b.chunk_id);
  EXPECT_EQ(a.covered_lo, b.covered_lo);
  EXPECT_EQ(a.covered_hi, b.covered_hi);
  EXPECT_EQ(a.results, b.results);
}

// --- Round trips -------------------------------------------------------------

TEST(EnvelopeCodecProperty, EnvelopeRoundTripsExactly) {
  Rng rng(20260701);
  for (int i = 0; i < 200; ++i) {
    PlanEnvelope env = RandomEnvelope(&rng);
    auto back = PlanEnvelope::Decode(env.Encode());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectEnvelopesEqual(env, *back);
  }
}

TEST(EnvelopeCodecProperty, ReplyRoundTripsExactly) {
  Rng rng(20260702);
  for (int i = 0; i < 200; ++i) {
    EnvelopeReply reply = RandomReply(&rng);
    auto back = EnvelopeReply::Decode(reply.Encode());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectRepliesEqual(reply, *back);
  }
}

// --- Malformed input ---------------------------------------------------------

TEST(EnvelopeCodecProperty, TruncatedEnvelopesError) {
  Rng rng(20260703);
  for (int i = 0; i < 20; ++i) {
    const std::string bytes = RandomEnvelope(&rng).Encode();
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto result = PlanEnvelope::Decode(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(result.ok())
          << "prefix of " << len << "/" << bytes.size() << " decoded";
    }
  }
}

TEST(EnvelopeCodecProperty, TruncatedRepliesError) {
  Rng rng(20260704);
  for (int i = 0; i < 20; ++i) {
    const std::string bytes = RandomReply(&rng).Encode();
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto result =
          EnvelopeReply::Decode(std::string_view(bytes).substr(0, len));
      EXPECT_FALSE(result.ok())
          << "prefix of " << len << "/" << bytes.size() << " decoded";
    }
  }
}

TEST(EnvelopeCodecProperty, CorruptedBuffersNeverCrash) {
  Rng rng(20260705);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = RandomEnvelope(&rng).Encode();
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] ^=
          static_cast<char>(1 + rng.NextBounded(255));
    }
    // Must terminate with a value or an error — either is acceptable, a
    // crash or hang is not.
    (void)PlanEnvelope::Decode(bytes);

    std::string reply_bytes = RandomReply(&rng).Encode();
    reply_bytes[rng.NextBounded(reply_bytes.size())] ^=
        static_cast<char>(1 + rng.NextBounded(255));
    (void)EnvelopeReply::Decode(reply_bytes);
  }
  EXPECT_FALSE(PlanEnvelope::Decode("\x01\x02garbage").ok());
  EXPECT_FALSE(EnvelopeReply::Decode("").ok());
  EXPECT_FALSE(EnvelopeReply::Decode("\xFF").ok());
}

// --- Range splitting ---------------------------------------------------------

TEST(SplitRangeProperty, PartsAreDisjointConsecutiveAndCovering) {
  Rng rng(20260707);
  for (int i = 0; i < 100; ++i) {
    pgrid::Key a = RandomDataKey(&rng);
    pgrid::Key b = RandomDataKey(&rng);
    pgrid::KeyRange range = a < b ? pgrid::KeyRange{a, b}
                                  : pgrid::KeyRange{b, a};
    const size_t parts = 1 + rng.NextBounded(9);
    auto split = pgrid::SplitRange(range, parts, pgrid::kKeyBits);
    ASSERT_FALSE(split.empty());
    EXPECT_LE(split.size(), parts);
    EXPECT_EQ(split.front().lo, range.lo);
    EXPECT_EQ(split.back().hi, range.hi);
    for (size_t s = 0; s < split.size(); ++s) {
      EXPECT_LE(split[s].lo.Compare(split[s].hi), 0);
      if (s + 1 < split.size()) {
        // Consecutive: the next sub-range starts right after this one.
        EXPECT_EQ(split[s].hi.Increment(), split[s + 1].lo);
      }
    }
  }
}

TEST(SplitRangeProperty, AttrRangeSplitsCleanly) {
  auto range = triple::AttrRange("age");
  auto split = pgrid::SplitRange(range, 4, pgrid::kKeyBits);
  EXPECT_EQ(split.size(), 4u);
  EXPECT_EQ(split.front().lo, range.lo);
  EXPECT_EQ(split.back().hi, range.hi);
}

TEST(KeyIncrement, Basics) {
  EXPECT_EQ(pgrid::Key::FromBits("0110").Increment().bits(), "0111");
  EXPECT_EQ(pgrid::Key::FromBits("0111").Increment().bits(), "1000");
  EXPECT_TRUE(pgrid::Key::FromBits("1111").Increment().empty());
}

// --- Coordinator state machine ----------------------------------------------

EnvelopeReply CoverageReply(const PlanEnvelope& env, const pgrid::Key& lo,
                            const pgrid::Key& hi,
                            std::vector<Binding> results) {
  EnvelopeReply reply;
  reply.kind = EnvelopeReply::Kind::kPartial;
  reply.walk_id = env.walk_id;
  reply.branch = env.branch;
  reply.chunk_id = env.chunk_id;
  reply.covered_lo = lo;
  reply.covered_hi = hi;
  reply.results = std::move(results);
  return reply;
}

TEST(EnvelopeCoordinatorTest, SplitsAndChunksLaunchFleet) {
  cost::MigrateBatching batching;
  batching.fanout = 4;
  batching.max_bindings_per_envelope = 2;
  std::vector<Binding> left(5);  // 5 bindings -> 3 chunks.
  for (int i = 0; i < 5; ++i) left[i]["a"] = Value::Int(i);
  EnvelopeCoordinator coordinator(
      /*initiator=*/1, vql::TriplePattern{}, triple::AttrRange("age"),
      left, batching, /*walk_retries=*/2, pgrid::kKeyBits,
      /*walk_id_base=*/100);
  auto fleet = coordinator.Launch();
  EXPECT_EQ(coordinator.branch_count(), 4u);
  EXPECT_EQ(coordinator.chunk_count(), 3u);
  ASSERT_EQ(fleet.size(), 12u);
  size_t total_bindings = 0;
  for (const auto& env : fleet) {
    EXPECT_LT(env.chunk_id, 3u);
    if (env.branch == 0) total_bindings += env.bindings.size();
  }
  EXPECT_EQ(total_bindings, 5u);  // Every chunk of one branch, exactly once.
  EXPECT_FALSE(coordinator.done());
}

TEST(EnvelopeCoordinatorTest, CoverageCompletesAndDedupes) {
  cost::MigrateBatching batching;
  batching.fanout = 1;
  batching.max_bindings_per_envelope = 0;
  pgrid::KeyRange range = triple::AttrRange("age");
  EnvelopeCoordinator coordinator(1, vql::TriplePattern{}, range,
                                  {Binding{}}, batching, /*walk_retries=*/2,
                                  pgrid::kKeyBits, 7);
  auto fleet = coordinator.Launch();
  ASSERT_EQ(fleet.size(), 1u);
  const PlanEnvelope& env = fleet[0];

  // Two peers cover the branch; their replies arrive out of order, the
  // second one twice (a retransmit).
  auto mid = pgrid::SplitRange(range, 2, pgrid::kKeyBits);
  ASSERT_EQ(mid.size(), 2u);
  Binding row1{{"a", Value::Int(1)}};
  Binding row2{{"a", Value::Int(2)}};
  auto late = CoverageReply(env, mid[1].lo, mid[1].hi, {row2});
  auto early = CoverageReply(env, mid[0].lo, mid[0].hi, {row1});

  EXPECT_TRUE(coordinator.OnReply(late).accepted);
  EXPECT_FALSE(coordinator.done());
  EXPECT_FALSE(coordinator.OnReply(late).accepted);  // Duplicate.
  EXPECT_TRUE(coordinator.OnReply(early).accepted);
  EXPECT_TRUE(coordinator.done());
  EXPECT_FALSE(coordinator.OnReply(early).accepted);  // Post-completion.

  auto result = coordinator.TakeResult();
  ASSERT_EQ(result.rows.size(), 2u);  // Deduped: 2 rows, not 3.
  EXPECT_EQ(result.peers_visited, 2u);
  EXPECT_EQ(result.max_walk_peers, 2u);
}

TEST(EnvelopeCoordinatorTest, TimerRelaunchesFromFrontier) {
  cost::MigrateBatching batching;
  batching.fanout = 1;
  pgrid::KeyRange range = triple::AttrRange("age");
  EnvelopeCoordinator coordinator(1, vql::TriplePattern{}, range,
                                  {Binding{}}, batching, /*walk_retries=*/1,
                                  pgrid::kKeyBits, 9);
  auto fleet = coordinator.Launch();
  auto mid = pgrid::SplitRange(range, 2, pgrid::kKeyBits);

  // First half covered: progress, so the walk's timer restarts. Then the
  // walk goes silent.
  auto first = CoverageReply(fleet[0], mid[0].lo, mid[0].hi, {});
  const auto reply = coordinator.OnReply(first);
  EXPECT_TRUE(reply.accepted);
  EXPECT_TRUE(reply.progress);
  EXPECT_FALSE(coordinator.walk_done(0, 0));

  // The timer fires: relaunch from the gap.
  auto outcome = coordinator.OnTimer(0, 0);
  ASSERT_EQ(outcome.action,
            EnvelopeCoordinator::TimerOutcome::Action::kRelaunch);
  EXPECT_EQ(outcome.envelope.remaining.lo, mid[1].lo);
  EXPECT_EQ(outcome.envelope.remaining.hi, range.hi);

  // A duplicate of covered ground is no progress.
  EXPECT_FALSE(coordinator.OnReply(first).progress);

  // Out of retries: the next silent period abandons the walk, and the
  // join ends with the uncovered second half named as its gap.
  outcome = coordinator.OnTimer(0, 0);
  EXPECT_EQ(outcome.action,
            EnvelopeCoordinator::TimerOutcome::Action::kAbandon);
  ASSERT_TRUE(coordinator.done());
  auto result = coordinator.TakeResult();
  EXPECT_FALSE(result.complete);
  ASSERT_EQ(result.coverage_gaps.size(), 1u);
  EXPECT_EQ(result.coverage_gaps[0].first, mid[1].lo.bits());
  EXPECT_EQ(result.coverage_gaps[0].second, range.hi.bits());
}

TEST(EnvelopeCoordinatorTest, ExtendingDuplicateRepaysRetry) {
  cost::MigrateBatching batching;
  batching.fanout = 1;
  pgrid::KeyRange range = triple::AttrRange("age");
  EnvelopeCoordinator coordinator(1, vql::TriplePattern{}, range,
                                  {Binding{}}, batching, /*walk_retries=*/1,
                                  pgrid::kKeyBits, 13);
  auto fleet = coordinator.Launch();
  auto mid = pgrid::SplitRange(range, 2, pgrid::kKeyBits);
  Binding row1{{"a", Value::Int(1)}};
  Binding row2{{"a", Value::Int(2)}};

  // The walk stalls: the timer consumes the only retry on a relaunch.
  auto outcome = coordinator.OnTimer(0, 0);
  ASSERT_EQ(outcome.action,
            EnvelopeCoordinator::TimerOutcome::Action::kRelaunch);

  // The original (presumed dead) instance then delivers the segment head.
  auto head = CoverageReply(fleet[0], range.lo, mid[0].hi, {row1});
  head.kind = EnvelopeReply::Kind::kTerminal;
  EXPECT_TRUE(coordinator.OnReply(head).accepted);

  // The relaunched instance re-delivers the head extended to the whole
  // branch: its rows are dropped (no duplicates), but the race repays the
  // retry — the next timeout relaunches the uncovered tail instead of
  // abandoning it.
  auto full = CoverageReply(outcome.envelope, range.lo, range.hi,
                            {row1, row2});
  full.kind = EnvelopeReply::Kind::kTerminal;
  const auto race = coordinator.OnReply(full);
  EXPECT_FALSE(race.accepted);
  EXPECT_TRUE(race.progress);
  EXPECT_FALSE(coordinator.done());

  outcome = coordinator.OnTimer(0, 0);
  ASSERT_EQ(outcome.action,
            EnvelopeCoordinator::TimerOutcome::Action::kRelaunch);
  EXPECT_EQ(outcome.envelope.remaining.lo, mid[1].lo);

  // The relaunch completes the tail; exactly one copy of each row.
  auto tail = CoverageReply(outcome.envelope, mid[1].lo, range.hi, {row2});
  tail.kind = EnvelopeReply::Kind::kTerminal;
  EXPECT_TRUE(coordinator.OnReply(tail).accepted);
  ASSERT_TRUE(coordinator.done());
  EXPECT_TRUE(coordinator.walk_done(0, 0));
  EXPECT_EQ(coordinator.TakeResult().rows.size(), 2u);
}

TEST(EnvelopeCoordinatorTest, ResultsAreCanonicallySorted) {
  cost::MigrateBatching batching;
  batching.fanout = 1;
  pgrid::KeyRange range = triple::AttrRange("age");
  EnvelopeCoordinator coordinator(1, vql::TriplePattern{}, range,
                                  {Binding{}}, batching, /*walk_retries=*/2,
                                  pgrid::kKeyBits, 11);
  auto fleet = coordinator.Launch();
  Binding small{{"a", Value::Int(1)}};
  Binding big{{"a", Value::Int(2)}};
  // A single terminal covering everything, rows in descending order.
  auto reply = CoverageReply(fleet[0], range.lo, range.hi, {big, small});
  reply.kind = EnvelopeReply::Kind::kTerminal;
  coordinator.OnReply(reply);
  ASSERT_TRUE(coordinator.done());
  auto result = coordinator.TakeResult();
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0], small);
  EXPECT_EQ(result.rows[1], big);
}

}  // namespace
}  // namespace exec
}  // namespace unistore
