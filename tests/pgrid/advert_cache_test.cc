// The initiator's replica-group advert cache (DESIGN.md §8): bounded with
// a shed count, longest covering path first with lazy expiry, and a
// replica dropped after a timeout stays out until it replies itself.
#include "pgrid/advert_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace unistore {
namespace pgrid {
namespace {

constexpr sim::SimTime kS = sim::kMicrosPerSecond;

// The `i`-th of many distinct 16-bit paths.
Key PathNumber(size_t i) {
  std::string bits;
  for (int b = 15; b >= 0; --b) bits.push_back(((i >> b) & 1) ? '1' : '0');
  return Key::FromBits(bits);
}

TEST(AdvertCacheTest, OverTheCapNewPathsAreShed) {
  AdvertCache cache;
  const size_t extra = 10;
  for (size_t i = 0; i < kAdvertCacheCap + extra; ++i) {
    cache.Learn(PathNumber(i), {1, 2}, 1, /*now=*/0);
  }
  EXPECT_EQ(cache.size(), kAdvertCacheCap);
  EXPECT_EQ(cache.sheds(), extra);
  // A cached path still refreshes when full.
  cache.Learn(PathNumber(0), {1, 2, 3}, 1, /*now=*/kS);
  EXPECT_EQ(cache.sheds(), extra);
  ASSERT_NE(cache.Find(PathNumber(0), kS), nullptr);
  EXPECT_EQ(cache.Find(PathNumber(0), kS)->replicas,
            (std::vector<PeerId>{1, 2, 3}));
  // Once the others expired, a new path sweeps them out instead of
  // being shed.
  cache.Learn(PathNumber(kAdvertCacheCap + extra), {1}, 1, kAdvertTtl);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.sheds(), extra);
}

TEST(AdvertCacheTest, FindReturnsTheLongestLiveCoveringPath) {
  AdvertCache cache;
  cache.Learn(Key::FromBits("0"), {10}, 10, /*now=*/kS);
  cache.Learn(Key::FromBits("01"), {20}, 20, /*now=*/0);
  cache.Learn(Key::FromBits("011"), {30}, 30, /*now=*/0);
  cache.Learn(Key::FromBits("0100"), {40}, 40, /*now=*/kS);
  cache.Learn(Key::FromBits("1"), {50}, 50, /*now=*/0);
  const Key key = Key::FromBits("01110");

  AdvertCache::Advert* advert = cache.Find(key, /*now=*/kS);
  ASSERT_NE(advert, nullptr);
  EXPECT_EQ(advert->replicas, std::vector<PeerId>{30});
  EXPECT_EQ(cache.Find(Key::FromBits("0101"), kS)->replicas,
            std::vector<PeerId>{20});
  EXPECT_EQ(cache.Find(Key::FromBits("01001"), kS)->replicas,
            std::vector<PeerId>{40});

  // At 2.5 s "01" and "011" have expired: the walk erases them on its way
  // to "0" and skips the live sibling "0100".
  advert = cache.Find(key, kAdvertTtl + kS / 2);
  ASSERT_NE(advert, nullptr);
  EXPECT_EQ(advert->replicas, std::vector<PeerId>{10});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Find(Key::FromBits("10"), kAdvertTtl + kS / 2), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AdvertCacheTest, ForgottenReplicaStaysOutUntilItReplies) {
  AdvertCache cache;
  const Key path = Key::FromBits("01");
  const Key key = Key::FromBits("0110");
  cache.Learn(path, {1, 2, 3}, 1, /*now=*/0);
  cache.Forget(key, 2, /*now=*/kS / 10);
  cache.Forget(key, 7, /*now=*/kS / 10);  // Not a member.
  EXPECT_EQ(cache.Find(key, kS / 10)->dropped, std::vector<PeerId>{2});
  // The group still lists the silent member; the advert keeps it out.
  cache.Learn(path, {1, 2, 3}, 3, /*now=*/kS / 5);
  EXPECT_TRUE(cache.Find(key, kS / 5)->Dropped(2));
  // Its own reply brings it back.
  cache.Learn(path, {1, 2, 3}, 2, /*now=*/kS / 4);
  EXPECT_FALSE(cache.Find(key, kS / 4)->Dropped(2));
  // A drop lasts only while the advert lives.
  cache.Forget(key, 3, /*now=*/kS / 2);
  EXPECT_TRUE(cache.Find(key, kS / 2)->Dropped(3));
  cache.Learn(path, {1, 2, 3}, 1, /*now=*/kS / 2 + kAdvertTtl);
  EXPECT_FALSE(cache.Find(key, kS / 2 + kAdvertTtl)->Dropped(3));
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
