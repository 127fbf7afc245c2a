#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include "cost/stats.h"

namespace unistore {
namespace cost {
namespace {

StatsCatalog MakeCatalog(double peers, double depth,
                         double hop_latency = 1000) {
  StatsCatalog catalog;
  catalog.network().peer_count = peers;
  catalog.network().trie_depth = depth;
  catalog.network().hop_latency_us = hop_latency;
  return catalog;
}

TEST(StatsTest, AttrStatsMerge) {
  AttrStats a;
  a.triple_count = 100;
  a.distinct_values = 50;
  a.numeric_min = 10;
  a.numeric_max = 20;
  a.has_numeric_range = true;
  AttrStats b;
  b.triple_count = 200;
  b.distinct_values = 80;
  b.numeric_min = 5;
  b.numeric_max = 15;
  b.has_numeric_range = true;
  a.MergeFrom(b);
  EXPECT_EQ(a.triple_count, 300u);
  EXPECT_EQ(a.distinct_values, 80u);
  EXPECT_DOUBLE_EQ(a.numeric_min, 5);
  EXPECT_DOUBLE_EQ(a.numeric_max, 20);
}

TEST(StatsTest, ReplicaContributionsMergeOnce) {
  // Both replicas of path "01" report the same 100 title triples; the
  // peer on path "10" holds 50 others.
  auto contribution = [](const std::string& path, uint64_t titles) {
    StatsCatalog c = MakeCatalog(4, 2);
    c.RecordPeerPath(pgrid::Key::FromBits(path));
    AttrStats s;
    s.triple_count = titles;
    s.distinct_values = titles;
    c.RecordAttribute("title", s);
    return c;
  };
  StatsCatalog merged;
  merged.MergeContribution(contribution("01", 100));
  merged.MergeContribution(contribution("01", 100));
  merged.MergeContribution(contribution("10", 50));
  EXPECT_EQ(merged.Attribute("title").triple_count, 150u);
  EXPECT_EQ(merged.peer_path_sample_size(), 2u);
}

TEST(StatsTest, MergeIntoEmptyCopies) {
  AttrStats a;
  AttrStats b;
  b.triple_count = 7;
  a.MergeFrom(b);
  EXPECT_EQ(a.triple_count, 7u);
  b.MergeFrom(AttrStats{});  // Merging empty is a no-op.
  EXPECT_EQ(b.triple_count, 7u);
}

TEST(StatsTest, CatalogRangeSelectivity) {
  StatsCatalog catalog;
  AttrStats age;
  age.triple_count = 100;
  age.numeric_min = 0;
  age.numeric_max = 100;
  age.has_numeric_range = true;
  catalog.RecordAttribute("age", age);
  EXPECT_NEAR(catalog.EstimateRangeSelectivity("age", 0, 50), 0.5, 1e-9);
  EXPECT_NEAR(catalog.EstimateRangeSelectivity("age", 25, 75), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(catalog.EstimateRangeSelectivity("age", 200, 300), 0.0);
  EXPECT_DOUBLE_EQ(catalog.EstimateRangeSelectivity("unknown", 0, 1), 1.0);
}

TEST(StatsTest, CatalogSpread) {
  StatsCatalog catalog;
  AttrStats a;
  a.triple_count = 900;
  catalog.RecordAttribute("big", a);
  AttrStats b;
  b.triple_count = 100;
  catalog.RecordAttribute("small", b);
  EXPECT_NEAR(catalog.EstimateAttributeSpread("big", 1000), 0.9, 1e-9);
  EXPECT_NEAR(catalog.EstimateAttributeSpread("small", 1000), 0.1, 1e-9);
}

TEST(StatsTest, CatalogCodecRoundTrip) {
  StatsCatalog catalog = MakeCatalog(64, 6, 2500);
  AttrStats s;
  s.triple_count = 42;
  s.distinct_values = 12;
  s.numeric_min = -1;
  s.numeric_max = 99;
  s.has_numeric_range = true;
  s.avg_string_length = 7.5;
  catalog.RecordAttribute("age", s);
  auto back = StatsCatalog::DecodeFromString(catalog.EncodeToString());
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->network().peer_count, 64);
  EXPECT_EQ(back->Attribute("age").triple_count, 42u);
  EXPECT_DOUBLE_EQ(back->Attribute("age").avg_string_length, 7.5);
}

TEST(CostModelTest, LookupIsLogarithmic) {
  StatsCatalog small = MakeCatalog(16, 4);
  StatsCatalog big = MakeCatalog(1024, 10);
  CostModel m_small(&small), m_big(&big);
  EXPECT_LT(m_small.Lookup().messages, m_big.Lookup().messages);
  // Doubling depth adds ~1 hop: cost grows slowly.
  EXPECT_LT(m_big.Lookup().messages, 4 * m_small.Lookup().messages);
}

TEST(CostModelTest, SequentialVsShowerCrossover) {
  StatsCatalog catalog = MakeCatalog(256, 8);
  CostModel model(&catalog);
  // Few peers: sequential (short walk) should win or tie.
  Cost seq_small = model.RangeScanSequential(/*peers=*/2, 10);
  Cost shower_small = model.RangeScanShower(/*peers=*/2, 10);
  // Many peers: shower's parallel latency must win clearly.
  Cost seq_big = model.RangeScanSequential(/*peers=*/200, 1000);
  Cost shower_big = model.RangeScanShower(/*peers=*/200, 1000);
  EXPECT_LT(shower_big.latency_us, seq_big.latency_us);
  // And the crossover exists: the sequential/shower ratio grows with the
  // covered peers.
  double ratio_small = seq_small.Total() / shower_small.Total();
  double ratio_big = seq_big.Total() / shower_big.Total();
  EXPECT_LT(ratio_small, ratio_big);
}

TEST(CostModelTest, JoinStrategyCrossover) {
  StatsCatalog catalog = MakeCatalog(256, 8);
  CostModel model(&catalog);
  // Few left bindings against a wide partition: probing wins.
  Cost probe_few = model.IndexJoinProbe(2, 0.5);
  Cost migrate_few = model.IndexJoinMigrate(2, /*peers=*/50, {});
  EXPECT_LT(probe_few.Total(), migrate_few.Total());
  // Many left bindings against a narrow partition: migrate wins.
  Cost probe_many = model.IndexJoinProbe(5000, 0.5);
  Cost migrate_many = model.IndexJoinMigrate(5000, /*peers=*/5, {});
  EXPECT_LT(migrate_many.Total(), probe_many.Total());
}

TEST(CostModelTest, SimilarityQGramBeatsNaiveOnTuplesMoved) {
  StatsCatalog catalog = MakeCatalog(256, 8);
  AttrStats series;
  series.triple_count = 5000;
  catalog.RecordAttribute("series", series);
  CostModel model(&catalog);
  Cost qgram = model.SimilarityQGram(/*max_distance=*/2, 3, 20);
  Cost naive = model.SimilarityNaive(/*peers=*/80, 5000);
  EXPECT_LT(qgram.tuples_moved, naive.tuples_moved);
}

TEST(StatsTest, PeersInRangeFromPathSample) {
  StatsCatalog catalog = MakeCatalog(16, 4);
  // A balanced 16-peer trie: paths 0000..1111.
  for (int i = 0; i < 16; ++i) {
    std::string bits;
    for (int b = 3; b >= 0; --b) bits.push_back(((i >> b) & 1) ? '1' : '0');
    catalog.RecordPeerPath(pgrid::Key::FromBits(bits));
  }
  // The whole space -> all 16 peers.
  pgrid::KeyRange full{pgrid::Key().PadTo(pgrid::kKeyBits, false),
                       pgrid::Key().PadTo(pgrid::kKeyBits, true)};
  EXPECT_NEAR(catalog.EstimatePeersInRange(full), 16, 0.5);
  // The '00' quarter -> 4 peers.
  pgrid::KeyRange quarter{
      pgrid::Key::FromBits("00").PadTo(pgrid::kKeyBits, false),
      pgrid::Key::FromBits("00").PadTo(pgrid::kKeyBits, true)};
  EXPECT_NEAR(catalog.EstimatePeersInRange(quarter), 4, 0.5);
}

TEST(StatsTest, PeersInRangeWithoutSampleUsesKeyFraction) {
  StatsCatalog catalog = MakeCatalog(64, 6);
  pgrid::KeyRange half{pgrid::Key::FromBits("1").PadTo(pgrid::kKeyBits,
                                                       false),
                       pgrid::Key::FromBits("1").PadTo(pgrid::kKeyBits,
                                                       true)};
  EXPECT_NEAR(catalog.EstimatePeersInRange(half), 32, 2.0);
}

TEST(StatsTest, PeerPathsSurviveCodecAndMerge) {
  StatsCatalog a = MakeCatalog(8, 3);
  a.RecordPeerPath(pgrid::Key::FromBits("010"));
  a.RecordPeerPath(pgrid::Key::FromBits("011"));
  a.RecordPeerPath(pgrid::Key::FromBits("010"));  // Duplicate ignored.
  EXPECT_EQ(a.peer_path_sample_size(), 2u);
  auto decoded = StatsCatalog::DecodeFromString(a.EncodeToString());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->peer_path_sample_size(), 2u);
  StatsCatalog b = MakeCatalog(8, 3);
  b.RecordPeerPath(pgrid::Key::FromBits("111"));
  b.MergeFrom(a);
  EXPECT_EQ(b.peer_path_sample_size(), 3u);
}

TEST(StatsTest, GossipedPathsDecodeAsKeysAndRejectOverlongOnes) {
  // A full-width path survives the codec; the sample is sorted in key
  // order (a prefix before its extensions).
  StatsCatalog a = MakeCatalog(8, 3);
  const pgrid::Key deep = pgrid::Key().PadTo(pgrid::kKeyBits, true);
  a.RecordPeerPath(deep);
  a.RecordPeerPath(pgrid::Key::FromBits("1"));
  a.RecordPeerPath(pgrid::Key::FromBits("0"));
  auto decoded = StatsCatalog::DecodeFromString(a.EncodeToString());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->peer_paths().size(), 3u);
  EXPECT_EQ(decoded->peer_paths()[0], pgrid::Key::FromBits("0"));
  EXPECT_EQ(decoded->peer_paths()[1], pgrid::Key::FromBits("1"));
  EXPECT_EQ(decoded->peer_paths()[2], deep);

  // A gossiped blob whose one path claims `bit_len` bits over `bytes`.
  auto blob = [](uint64_t bit_len, const std::string& bytes) {
    BufferWriter w;
    w.PutDouble(8);
    w.PutDouble(3);
    w.PutDouble(0);
    w.PutVarint(0);  // No attributes.
    w.PutVarint(1);  // One sampled path.
    w.PutVarint(bit_len);
    w.PutRaw(bytes);
    return w.Release();
  };
  EXPECT_TRUE(StatsCatalog::DecodeFromString(blob(3, "\x40")).ok());
  // Over 128 bits, nonzero padding, truncated body: Corruption, never an
  // abort at a later estimate.
  for (const std::string& bad : {blob(129, std::string(17, '\xff')),
                                 blob(3, "\x41"), blob(16, "\x01")}) {
    EXPECT_EQ(StatsCatalog::DecodeFromString(bad).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(CostModelTest, CostAdditionAndTotal) {
  Cost a{10, 1000, 5};
  Cost b{5, 500, 2};
  Cost sum = a + b;
  EXPECT_DOUBLE_EQ(sum.messages, 15);
  EXPECT_DOUBLE_EQ(sum.latency_us, 1500);
  EXPECT_DOUBLE_EQ(sum.tuples_moved, 7);
  EXPECT_GT(sum.Total(), 0);
}

}  // namespace
}  // namespace cost
}  // namespace unistore
