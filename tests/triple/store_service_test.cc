// Distributed triple reads/writes over a real overlay.
#include "triple/store_service.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "pgrid/overlay.h"

namespace unistore {
namespace triple {
namespace {

class TripleStoreTest : public ::testing::Test {
 protected:
  TripleStoreTest() {
    pgrid::OverlayOptions options;
    options.seed = 99;
    overlay_ = std::make_unique<pgrid::Overlay>(options);
    overlay_->AddPeers(16);
    overlay_->BuildBalanced();
    for (size_t i = 0; i < 16; ++i) {
      stores_.push_back(std::make_unique<TripleStore>(
          overlay_->peer(static_cast<net::PeerId>(i))));
    }
  }

  Status InsertSync(size_t via, const Triple& t, uint64_t version = 1) {
    std::optional<Status> out;
    stores_[via]->InsertTriple(t, version,
                               [&out](Status s) { out = std::move(s); });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    return out.value_or(Status::Internal("drained"));
  }

  Status RemoveSync(size_t via, const Triple& t, uint64_t version) {
    std::optional<Status> out;
    stores_[via]->RemoveTriple(t, version,
                               [&out](Status s) { out = std::move(s); });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    return out.value_or(Status::Internal("drained"));
  }

  Result<std::vector<Triple>> Collect(
      std::function<void(TripleStore::TriplesCallback)> op) {
    std::optional<Result<std::vector<Triple>>> out;
    op([&out](Result<std::vector<Triple>> r) { out = std::move(r); });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    if (!out.has_value()) return Status::Internal("drained");
    return std::move(*out);
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<TripleStore>> stores_;
};

TEST_F(TripleStoreTest, InsertAndGetByOid) {
  ASSERT_TRUE(InsertSync(0, Triple("p1", "name", Value::String("alice"))).ok());
  ASSERT_TRUE(InsertSync(1, Triple("p1", "age", Value::Int(30))).ok());
  ASSERT_TRUE(InsertSync(2, Triple("p2", "name", Value::String("bob"))).ok());

  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[5]->GetByOid("p1", std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
  for (const auto& t : *triples) EXPECT_EQ(t.oid, "p1");
}

TEST_F(TripleStoreTest, GetByAttrValueExact) {
  ASSERT_TRUE(InsertSync(0, Triple("p1", "age", Value::Int(30))).ok());
  ASSERT_TRUE(InsertSync(0, Triple("p2", "age", Value::Int(30))).ok());
  ASSERT_TRUE(InsertSync(0, Triple("p3", "age", Value::Int(31))).ok());

  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[7]->GetByAttrValue("age", Value::Int(30), std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
}

TEST_F(TripleStoreTest, GetByAttrRangePostFiltersExactly) {
  for (int year = 2000; year <= 2010; ++year) {
    ASSERT_TRUE(InsertSync(0, Triple("c" + std::to_string(year), "year",
                                     Value::Int(year)))
                    .ok());
  }
  for (auto strategy : {RangeStrategy::kSequential, RangeStrategy::kShower}) {
    auto triples = Collect([this, strategy](TripleStore::TriplesCallback cb) {
      stores_[3]->GetByAttrRange("year", Value::Int(2003), Value::Int(2006),
                                 strategy, std::move(cb));
    });
    ASSERT_TRUE(triples.ok());
    std::set<int64_t> years;
    for (const auto& t : *triples) years.insert(t.value.AsInt());
    EXPECT_EQ(years, (std::set<int64_t>{2003, 2004, 2005, 2006}));
  }
}

TEST_F(TripleStoreTest, GetByValueFindsAnyAttribute) {
  ASSERT_TRUE(
      InsertSync(0, Triple("p1", "name", Value::String("icde"))).ok());
  ASSERT_TRUE(
      InsertSync(0, Triple("c1", "series", Value::String("icde"))).ok());
  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[9]->GetByValue(Value::String("icde"), std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
  std::set<std::string> attrs;
  for (const auto& t : *triples) attrs.insert(t.attribute);
  EXPECT_EQ(attrs, (std::set<std::string>{"name", "series"}));
}

TEST_F(TripleStoreTest, GetByAttrPrefix) {
  ASSERT_TRUE(InsertSync(0, Triple("c1", "series", Value::String("ICDE"))).ok());
  ASSERT_TRUE(InsertSync(0, Triple("c2", "series", Value::String("ICDM"))).ok());
  ASSERT_TRUE(InsertSync(0, Triple("c3", "series", Value::String("VLDB"))).ok());
  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[2]->GetByAttrPrefix("series", "ICD", RangeStrategy::kShower,
                                std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
}

TEST_F(TripleStoreTest, RemoveMakesTripleInvisibleInAllIndexes) {
  Triple t("p1", "name", Value::String("alice"));
  ASSERT_TRUE(InsertSync(0, t, /*version=*/1).ok());
  ASSERT_TRUE(RemoveSync(4, t, /*version=*/2).ok());

  auto by_oid = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[1]->GetByOid("p1", std::move(cb));
  });
  ASSERT_TRUE(by_oid.ok());
  EXPECT_TRUE(by_oid->empty());

  auto by_av = Collect([this, &t](TripleStore::TriplesCallback cb) {
    stores_[2]->GetByAttrValue("name", t.value, std::move(cb));
  });
  ASSERT_TRUE(by_av.ok());
  EXPECT_TRUE(by_av->empty());

  auto by_v = Collect([this, &t](TripleStore::TriplesCallback cb) {
    stores_[3]->GetByValue(t.value, std::move(cb));
  });
  ASSERT_TRUE(by_v.ok());
  EXPECT_TRUE(by_v->empty());
}

TEST_F(TripleStoreTest, ScanAttributeReturnsAllOfOneAttribute) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(InsertSync(0, Triple("p" + std::to_string(i), "age",
                                     Value::Int(20 + i)))
                    .ok());
    ASSERT_TRUE(InsertSync(0, Triple("p" + std::to_string(i), "name",
                                     Value::String("n" + std::to_string(i))))
                    .ok());
  }
  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[11]->ScanAttribute("age", RangeStrategy::kShower, std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 12u);
  for (const auto& t : *triples) EXPECT_EQ(t.attribute, "age");
}

TEST_F(TripleStoreTest, OrderedLimitedScanReturnsSmallestValues) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(InsertSync(0, Triple("p" + std::to_string(i), "age",
                                     Value::Int(20 + i)))
                    .ok());
  }
  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[4]->GetByAttrRangeOrdered("age", Value::Null(), Value::Null(),
                                      /*limit=*/5, std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  // At least `limit` results, and the returned set must be a prefix of the
  // value-sorted full list: {20, 21, ..., 20+n-1}. (Whether the walk cuts
  // early depends on how many peers the partition spans; the ordering
  // property must hold either way. The early-cut behaviour itself is
  // verified at the overlay level in pgrid/range_test.cc.)
  ASSERT_GE(triples->size(), 5u);
  std::set<int64_t> returned;
  for (const auto& t : *triples) returned.insert(t.value.AsInt());
  int64_t expect = 20;
  for (int64_t v : returned) {
    EXPECT_EQ(v, expect) << "gap in ordered prefix";
    ++expect;
  }
}

TEST_F(TripleStoreTest, ScanAllSeesEveryTriple) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(InsertSync(0, Triple("o" + std::to_string(i),
                                     "attr" + std::to_string(i % 3),
                                     Value::Int(i)))
                    .ok());
  }
  auto triples = Collect([this](TripleStore::TriplesCallback cb) {
    stores_[6]->ScanAll(RangeStrategy::kShower, std::move(cb));
  });
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 8u);
}

}  // namespace
}  // namespace triple
}  // namespace unistore
