// QueryService: mutant-plan envelopes, statistics gossip and the envelope
// codec, exercised directly (the executor-level behaviour is covered by
// the integration suite).
#include "exec/query_service.h"

#include <gtest/gtest.h>

#include <optional>

#include "exec/envelope.h"
#include "pgrid/overlay.h"
#include "triple/index.h"
#include "triple/store_service.h"

namespace unistore {
namespace exec {
namespace {

using triple::Triple;
using triple::Value;

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() {
    pgrid::OverlayOptions options;
    options.seed = 77;
    overlay_ = std::make_unique<pgrid::Overlay>(options);
    overlay_->AddPeers(16);
    overlay_->BuildBalanced();
    for (size_t i = 0; i < 16; ++i) {
      services_.push_back(std::make_unique<QueryService>(
          overlay_->peer(static_cast<net::PeerId>(i))));
    }
  }

  void InsertTriple(const Triple& t) {
    for (auto& entry : triple::EntriesForTriple(t, 1)) {
      overlay_->InsertDirect(entry);
    }
  }

  Result<std::vector<Binding>> MigrateSync(size_t via,
                                           const vql::TriplePattern& pattern,
                                           std::vector<Binding> left) {
    std::optional<Result<MigrateResult>> out;
    services_[via]->RunMigrateJoin(
        pattern, std::move(left),
        [&out](Result<MigrateResult> r) { out = std::move(r); });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    if (!out.has_value()) return Status::Internal("drained");
    if (!out->ok()) return out->status();
    return std::move((*out)->rows);
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<QueryService>> services_;
};

vql::TriplePattern AgePattern() {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Lit(Value::String("age"));
  p.object = vql::Term::Var("g");
  return p;
}

TEST_F(QueryServiceTest, MigrateJoinJoinsAgainstPartition) {
  InsertTriple(Triple("p1", "age", Value::Int(30)));
  InsertTriple(Triple("p2", "age", Value::Int(40)));
  InsertTriple(Triple("p3", "name", Value::String("zoe")));

  std::vector<Binding> left = {
      {{"a", Value::String("p1")}, {"n", Value::String("alice")}},
      {{"a", Value::String("p2")}, {"n", Value::String("bob")}},
      {{"a", Value::String("nobody")}, {"n", Value::String("ghost")}},
  };
  auto result = MigrateSync(3, AgePattern(), left);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& row : *result) {
    EXPECT_TRUE(row.count("g"));
    EXPECT_TRUE(row.count("n"));
  }
}

TEST_F(QueryServiceTest, MigrateJoinEmptyLeftYieldsEmpty) {
  InsertTriple(Triple("p1", "age", Value::Int(30)));
  auto result = MigrateSync(0, AgePattern(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(QueryServiceTest, MigrateJoinNeedsLiteralAttribute) {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Var("p");  // Variable attribute: unsupported.
  p.object = vql::Term::Var("v");
  auto result = MigrateSync(0, p, {{{"a", Value::String("p1")}}});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(QueryServiceTest, EnvelopeCountsVisitedPeers) {
  InsertTriple(Triple("p1", "age", Value::Int(30)));
  uint64_t before = 0;
  for (auto& s : services_) before += s->envelopes_processed();
  (void)MigrateSync(2, AgePattern(), {{{"a", Value::String("p1")}}});
  uint64_t after = 0;
  for (auto& s : services_) after += s->envelopes_processed();
  EXPECT_GT(after, before);
}

// Peers 2 ("10") and 3 ("11") each name only the other for the "0"
// subtree, which holds every attribute partition ("a#" starts with bit 0),
// so an envelope from peer 2 bounces between them. Every walk attempt
// dead-ends at the 2·kKeyBits hop cap, and once its retries are spent the
// join ends with the whole partition named as a coverage gap instead of
// looping until the deadline.
TEST(QueryServiceCycleTest, EnvelopeRoutingCycleDeadEndsAtTheHopCap) {
  pgrid::OverlayOptions options;
  options.seed = 15;
  pgrid::Overlay overlay(options);
  overlay.AddPeers(4);
  overlay.BuildBalanced();
  std::vector<std::unique_ptr<QueryService>> services;
  for (net::PeerId p = 0; p < 4; ++p) {
    services.push_back(std::make_unique<QueryService>(overlay.peer(p)));
  }
  pgrid::Peer* a = overlay.peer(2);
  pgrid::Peer* b = overlay.peer(3);
  ASSERT_EQ(a->path().bits(), "10");
  ASSERT_EQ(b->path().bits(), "11");
  for (net::PeerId p : {0u, 1u}) {
    a->routing().RemoveEverywhere(p);
    b->routing().RemoveEverywhere(p);
  }
  a->routing().AddRef(0, b->id(), &a->rng());
  b->routing().AddRef(0, a->id(), &b->rng());
  ASSERT_FALSE(a->IsResponsible(triple::AttrRange("age").lo));

  const EnvelopeOptions envelope;  // The defaults the join runs with.
  const net::TrafficStats before = overlay.transport().stats();
  const sim::SimTime start = overlay.scheduler().Now();
  std::optional<Result<MigrateResult>> out;
  services[2]->RunMigrateJoin(
      AgePattern(), {{{"a", Value::String("p1")}}},
      [&out](Result<MigrateResult> r) { out = std::move(r); });
  // Bounded: without the hop cap the envelopes never stop bouncing.
  overlay.scheduler().RunFor(kMigrateDeadline / 2);
  ASSERT_TRUE(out.has_value()) << "join still running";
  ASSERT_TRUE(out->ok()) << out->status().ToString();
  EXPECT_FALSE((*out)->complete);
  EXPECT_TRUE((*out)->rows.empty());
  // The branch gaps together name the whole attribute partition.
  const pgrid::KeyRange range = triple::AttrRange("age");
  ASSERT_FALSE((*out)->coverage_gaps.empty());
  EXPECT_EQ((*out)->coverage_gaps.front().first, range.lo.bits());
  EXPECT_EQ((*out)->coverage_gaps.back().second, range.hi.bits());
  EXPECT_LT(overlay.scheduler().Now() - start, kMigrateDeadline);

  const auto delta = overlay.transport().stats().Since(before);
  auto it = delta.per_type.find(net::MessageType::kPlanExec);
  ASSERT_NE(it, delta.per_type.end());
  const uint64_t attempts =
      uint64_t{envelope.fanout} *
      static_cast<uint64_t>(a->options().request_retries + 1);
  // Each attempt of each branch walk runs to the cap, and no further.
  EXPECT_EQ(it->second, attempts * 2 * pgrid::kKeyBits);
}

TEST_F(QueryServiceTest, StatsGossipSpreadsContributions) {
  InsertTriple(Triple("p1", "age", Value::Int(30)));
  InsertTriple(Triple("p2", "age", Value::Int(40)));
  overlay_->scheduler().RunUntilIdle();
  for (auto& s : services_) s->BuildLocalStats(1000);

  // Before gossip: only peers hosting 'age' entries know the attribute.
  size_t knowing_before = 0;
  for (auto& s : services_) {
    if (s->catalog().Attribute("age").triple_count > 0) ++knowing_before;
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& s : services_) s->GossipStats(3);
    overlay_->scheduler().RunUntilIdle();
  }
  size_t knowing_after = 0;
  for (auto& s : services_) {
    if (s->catalog().Attribute("age").triple_count > 0) ++knowing_after;
  }
  EXPECT_GT(knowing_after, knowing_before);
}

TEST_F(QueryServiceTest, RepeatedGossipDoesNotDoubleCount) {
  InsertTriple(Triple("p1", "age", Value::Int(30)));
  overlay_->scheduler().RunUntilIdle();
  for (auto& s : services_) s->BuildLocalStats(1000);
  for (int round = 0; round < 6; ++round) {
    for (auto& s : services_) s->GossipStats(3);
    overlay_->scheduler().RunUntilIdle();
  }
  // The triple was inserted once; no catalog may report more than the
  // replication count of copies (here: 1).
  for (auto& s : services_) {
    EXPECT_LE(s->catalog().Attribute("age").triple_count, 1u);
  }
}

TEST_F(QueryServiceTest, GossipCarriesPeerPaths) {
  for (auto& s : services_) s->BuildLocalStats(1000);
  for (int round = 0; round < 3; ++round) {
    for (auto& s : services_) s->GossipStats(4);
    overlay_->scheduler().RunUntilIdle();
  }
  // After gossip a peer knows several paths, enabling peers-in-range
  // estimation.
  EXPECT_GT(services_[0]->catalog().peer_path_sample_size(), 3u);
}

TEST(EnvelopeCodecTest, RoundTrip) {
  PlanEnvelope env;
  env.initiator = 7;
  env.pattern.subject = vql::Term::Var("a");
  env.pattern.predicate = vql::Term::Lit(Value::String("age"));
  env.pattern.object = vql::Term::Lit(Value::Int(30));
  env.remaining = triple::AttrRange("age");
  env.bindings = {{{"a", Value::String("p1")}}};

  auto back = PlanEnvelope::Decode(env.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->initiator, 7u);
  EXPECT_EQ(back->pattern.ToString(), env.pattern.ToString());
  EXPECT_EQ(back->remaining.lo, env.remaining.lo);
  EXPECT_EQ(back->bindings.size(), 1u);
}

TEST(EnvelopeCodecTest, ReplyRoundTripAndCorruption) {
  EnvelopeReply reply;
  reply.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
  reply.error = "stalled";
  reply.results = {{{"x", Value::Int(1)}}};
  auto back = EnvelopeReply::Decode(reply.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->error, "stalled");

  EXPECT_FALSE(PlanEnvelope::Decode("\x01\x02garbage").ok());
  EXPECT_FALSE(EnvelopeReply::Decode("\xFF").ok());
}

}  // namespace
}  // namespace exec
}  // namespace unistore
