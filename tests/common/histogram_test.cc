#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace unistore {
namespace {

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
}

TEST(SampleStatsTest, EmptyIsSafe) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.Gini(), 0.0);
}

TEST(SampleStatsTest, GiniOfEqualValuesIsZero) {
  SampleStats s;
  for (int i = 0; i < 50; ++i) s.Add(10.0);
  EXPECT_NEAR(s.Gini(), 0.0, 1e-9);
}

TEST(SampleStatsTest, GiniOfConcentratedMassApproachesOne) {
  SampleStats s;
  for (int i = 0; i < 99; ++i) s.Add(0.0);
  s.Add(1000.0);
  EXPECT_GT(s.Gini(), 0.95);
}

TEST(SampleStatsTest, GiniIsScaleInvariant) {
  SampleStats a, b;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    double v = rng.NextDouble() * 100;
    a.Add(v);
    b.Add(v * 7.5);
  }
  EXPECT_NEAR(a.Gini(), b.Gini(), 1e-9);
}

TEST(SampleStatsTest, AddAfterReadKeepsConsistency) {
  SampleStats s;
  s.Add(5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.Add(10);  // Adding after a sorted read must re-sort.
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
}

}  // namespace
}  // namespace unistore
