// Versioned result cache (DESIGN.md §8): unit tests of the LRU /
// fingerprint machinery, plus differential property tests against a
// cache-off oracle — the cache must never serve a result older than the
// latest completed write into the queried range, including writes that
// land mid-walk.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/envelope_coordinator.h"
#include "exec/query_service.h"
#include "exec/result_cache.h"
#include "pgrid/overlay.h"
#include "triple/index.h"

namespace unistore {
namespace exec {
namespace {

using triple::Triple;
using triple::Value;

// --- ResultCache unit tests -------------------------------------------------

MigrateResult FakeResult(const std::string& tag, size_t rows) {
  MigrateResult result;
  for (size_t i = 0; i < rows; ++i) {
    result.rows.push_back({{"v", Value::String(tag + std::to_string(i))}});
  }
  result.peers_visited = 3;
  return result;
}

TEST(ResultCacheTest, DisabledCacheStoresNothing) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("k", FakeResult("a", 4));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, InsertLookupInvalidate) {
  ResultCache cache(1 << 20);
  cache.Insert("k1", FakeResult("a", 4));
  ASSERT_NE(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.Lookup("k1")->rows.size(), 4u);
  EXPECT_EQ(cache.Lookup("missing"), nullptr);

  cache.Invalidate("k1");
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Invalidating an absent key does not count.
  cache.Invalidate("k1");
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, OverwriteReplacesWithoutCountingInvalidation) {
  ResultCache cache(1 << 20);
  cache.Insert("k", FakeResult("old", 2));
  cache.Insert("k", FakeResult("new", 3));
  ASSERT_NE(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.Lookup("k")->rows.size(), 3u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget sized to hold only a couple of entries.
  const size_t entry_bytes = 3 /*key*/ +
      ResultCache::ApproxBytesForTest(FakeResult("x", 8));
  ResultCache cache(2 * entry_bytes + entry_bytes / 2);
  cache.Insert("k01", FakeResult("x", 8));
  cache.Insert("k02", FakeResult("x", 8));
  ASSERT_EQ(cache.entries(), 2u);

  // Touch k01 so k02 is the LRU victim.
  EXPECT_NE(cache.Lookup("k01"), nullptr);
  cache.Insert("k03", FakeResult("x", 8));
  EXPECT_LE(cache.bytes(), 2 * entry_bytes + entry_bytes / 2);
  EXPECT_NE(cache.Lookup("k01"), nullptr);
  EXPECT_EQ(cache.Lookup("k02"), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Lookup("k03"), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, OversizedResultIsNotCached) {
  ResultCache cache(64);
  cache.Insert("k", FakeResult("a-rather-long-row-payload", 50));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

vql::TriplePattern Pattern(const std::string& predicate) {
  vql::TriplePattern p;
  p.subject = vql::Term::Var("a");
  p.predicate = vql::Term::Lit(Value::String(predicate));
  p.object = vql::Term::Var("o");
  return p;
}

TEST(ResultCacheTest, FingerprintIsInjectiveAcrossComponents) {
  const auto range_age = triple::AttrRange("age");
  const auto range_name = triple::AttrRange("name");
  std::vector<Binding> left1 = {{{"a", Value::String("p1")}}};
  std::vector<Binding> left2 = {{{"a", Value::String("p2")}}};

  const std::string base =
      ResultCache::Fingerprint(Pattern("age"), "", range_age, left1);
  // Different predicate, filter, range, or bindings — all distinct keys.
  EXPECT_NE(base,
            ResultCache::Fingerprint(Pattern("name"), "", range_name, left1));
  EXPECT_NE(base, ResultCache::Fingerprint(Pattern("age"), "?o > 5",
                                           range_age, left1));
  EXPECT_NE(base,
            ResultCache::Fingerprint(Pattern("age"), "", range_name, left1));
  EXPECT_NE(base,
            ResultCache::Fingerprint(Pattern("age"), "", range_age, left2));
  // Same inputs — same key.
  EXPECT_EQ(base,
            ResultCache::Fingerprint(Pattern("age"), "", range_age, left1));
}

// --- Differential property tests against a cache-off oracle ----------------

constexpr size_t kLeaves = 8;

std::vector<std::string> CachePaths() {
  return pgrid::PartitionCoverPaths(triple::AttrPrefixRange("age", ""),
                                    kLeaves);
}

std::string SpreadValue(int i) {
  std::string v;
  v.push_back(static_cast<char>(32 + (i * 37) % 224));
  v += "v" + std::to_string(i);
  return v;
}

std::string RowsToString(const std::vector<Binding>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += BindingToString(row);
    out.push_back('\n');
  }
  return out;
}

class ResultCachePropertyTest : public ::testing::Test {
 protected:
  void Build(uint64_t seed = 911) {
    const auto paths = CachePaths();
    pgrid::OverlayOptions options;
    options.seed = seed;
    overlay_ = std::make_unique<pgrid::Overlay>(options);
    overlay_->AddPeers(paths.size());
    overlay_->BuildWithPaths(paths);
    services_.clear();
    for (size_t i = 0; i < paths.size(); ++i) {
      services_.push_back(std::make_unique<QueryService>(
          overlay_->peer(static_cast<net::PeerId>(i))));
    }
    // Service 0 runs with the cache on; service 1 is the always-recompute
    // oracle on another peer (rows are canonically sorted, so the
    // initiator does not affect the bytes).
    EnvelopeOptions cached;
    cached.fanout = 4;
    cached.max_bindings_per_envelope = 8;
    cached.cache_bytes = 1 << 20;
    services_[0]->set_envelope_options(cached);
    EnvelopeOptions oracle = cached;
    oracle.cache_bytes = 0;
    services_[1]->set_envelope_options(oracle);

    next_oid_ = 0;
    for (int i = 0; i < 40; ++i) InsertAge();
  }

  // A new person with an age triple lands somewhere in the partition:
  // every insert is a completed write the cache must observe.
  void InsertAge() {
    const int i = next_oid_++;
    Triple t("p" + std::to_string(i), "age", Value::String(SpreadValue(i)));
    for (auto& entry : triple::EntriesForTriple(t, 1)) {
      overlay_->InsertDirect(entry);
    }
  }

  std::vector<Binding> Left() {
    std::vector<Binding> left;
    for (int i = 0; i < 60; ++i) {
      left.push_back({{"a", Value::String("p" + std::to_string(i))}});
    }
    return left;
  }

  Result<MigrateResult> MigrateVia(size_t service,
                                   const std::string& filter = "") {
    std::optional<Result<MigrateResult>> out;
    services_[service]->RunMigrateJoin(
        Pattern("age"), filter, Left(),
        [&out](Result<MigrateResult> r) { out = std::move(r); });
    overlay_->simulation().RunUntil([&out] { return out.has_value(); });
    if (!out.has_value()) return Status::Internal("simulation drained");
    return std::move(*out);
  }

  const ResultCacheStats& CacheStats() {
    return services_[0]->result_cache().stats();
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<QueryService>> services_;
  int next_oid_ = 0;
};

TEST_F(ResultCachePropertyTest, HitsAreByteIdenticalToOracle) {
  Build();
  auto first = MigrateVia(0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->rows.size(), 10u);
  EXPECT_EQ(CacheStats().misses, 1u);

  auto second = MigrateVia(0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(CacheStats().hits, 1u) << "repeat with no writes should hit";
  EXPECT_GT(CacheStats().probes, 0u) << "hits must be version-checked";

  auto oracle = MigrateVia(1);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(RowsToString(second->rows), RowsToString(oracle->rows));
  // The whole result is memoized, counters included.
  EXPECT_EQ(second->peers_visited, first->peers_visited);
}

TEST_F(ResultCachePropertyTest, CompletedWritesAreNeverMaskedByTheCache) {
  Build();
  Rng rng(4321);
  uint64_t expected_hits = 0;
  bool saw_invalidation_path = false;
  // Property loop: interleave completed writes with repeated identical
  // queries; every query must match the always-recompute oracle exactly.
  for (int round = 0; round < 12; ++round) {
    const bool mutate = round > 0 && rng.NextBernoulli(0.5);
    if (mutate) {
      InsertAge();
      saw_invalidation_path = true;
    } else if (round > 0) {
      ++expected_hits;
    }
    auto cached = MigrateVia(0);
    auto oracle = MigrateVia(1);
    ASSERT_TRUE(cached.ok()) << round << ": " << cached.status().ToString();
    ASSERT_TRUE(oracle.ok()) << round << ": " << oracle.status().ToString();
    ASSERT_EQ(RowsToString(cached->rows), RowsToString(oracle->rows))
        << "round " << round << (mutate ? " (after write)" : " (no write)");
  }
  ASSERT_TRUE(saw_invalidation_path);
  EXPECT_EQ(CacheStats().hits, expected_hits)
      << "quiet rounds should all be served from cache";
  EXPECT_GT(CacheStats().invalidations, 0u)
      << "writes into the range must invalidate, not refresh-by-luck";
}

TEST_F(ResultCachePropertyTest, MidWalkWritesDoNotPoisonLaterServes) {
  Build();
  // Start a cached walk and splice a write in while it is in flight.
  std::optional<Result<MigrateResult>> out;
  services_[0]->RunMigrateJoin(
      Pattern("age"), "", Left(),
      [&out](Result<MigrateResult> r) { out = std::move(r); });
  overlay_->simulation().RunFor(2 * sim::kMicrosPerMilli);
  InsertAge();  // Lands mid-walk; the first result may or may not see it.
  overlay_->simulation().RunUntil([&out] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->ok()) << out->status().ToString();

  // The next query MUST reflect the completed write, whether the walk
  // above cached a pre-write or post-write snapshot.
  auto cached = MigrateVia(0);
  auto oracle = MigrateVia(1);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(RowsToString(cached->rows), RowsToString(oracle->rows));
  const std::string last_oid = "p" + std::to_string(next_oid_ - 1);
  EXPECT_NE(RowsToString(cached->rows).find(last_oid), std::string::npos)
      << "mid-walk write invisible after completion";
}

TEST_F(ResultCachePropertyTest, SpliceRunInvalidatesCoveringEntries) {
  Build();
  auto first = MigrateVia(0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(CacheStats().misses, 1u);
  const uint64_t invalidations_before = CacheStats().invalidations;

  // Replica repair splices entries straight into the backend run set,
  // bypassing the memtable write path (LocalStore::SpliceRun). A new
  // person's age triple arrives at every responsible peer that way; the
  // cached result must re-probe, notice the version bump, and recompute.
  const int i = next_oid_++;
  Triple t("p" + std::to_string(i), "age", Value::String(SpreadValue(i)));
  for (auto& entry : triple::EntriesForTriple(t, 1)) {
    for (net::PeerId id : overlay_->ResponsiblePeers(entry.key)) {
      overlay_->peer(id)->store().SpliceRun({entry});
    }
  }

  auto cached = MigrateVia(0);
  auto oracle = MigrateVia(1);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(RowsToString(cached->rows), RowsToString(oracle->rows));
  const std::string oid = "p" + std::to_string(i);
  EXPECT_NE(RowsToString(cached->rows).find(oid), std::string::npos)
      << "spliced entry invisible to the cached query path";
  EXPECT_GT(CacheStats().invalidations, invalidations_before)
      << "splice must invalidate the cached range, not refresh-by-luck";
}

}  // namespace
}  // namespace exec
}  // namespace unistore
