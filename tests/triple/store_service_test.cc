// Distributed triple reads/writes over a real overlay.
#include "triple/store_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "pgrid/ophash.h"
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

  Status InsertEntriesSync(size_t via, std::vector<pgrid::Entry> entries) {
    std::optional<Status> out;
    stores_[via]->InsertEntries(std::move(entries),
                                [&out](Status s) { out = std::move(s); });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    return out.value_or(Status::Internal("drained"));
  }

  Result<TripleStore::KeyTriples> GetByKeysSync(size_t via,
                                                pgrid::KeySuffixes keys) {
    std::optional<Result<TripleStore::KeyTriples>> out;
    stores_[via]->GetByKeys(std::move(keys),
                            [&out](Result<TripleStore::KeyTriples> r) {
                              out = std::move(r);
                            });
    overlay_->scheduler().RunUntil([&out] { return out.has_value(); });
    if (!out.has_value()) return Status::Internal("drained");
    return std::move(*out);
  }

  std::unique_ptr<pgrid::Overlay> overlay_;
  std::vector<std::unique_ptr<TripleStore>> stores_;
};

// A q-gram posting: "g#", the gram, then the triple's identity.
pgrid::Entry Posting(const pgrid::Key& key, const std::string& gram,
                     const Triple& t) {
  pgrid::Entry e;
  e.key = key;
  e.id = PostingId(gram, t.Identity());
  return e;
}

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

// Postings of one triple under two grams whose keys coincide: reads dedupe
// on the ids' bodies, which are equal, not on the whole ids, which are not.
TEST_F(TripleStoreTest, TwoPostingsOfOneTripleUnderOneKeyComeBackOnce) {
  const Triple t("p1", "title", Value::String("abcd"));
  const Triple other("p2", "title", Value::String("abce"));
  const pgrid::Key key = pgrid::OpHash("g#title#ab");
  ASSERT_TRUE(InsertEntriesSync(0, {Posting(key, "abc", t),
                                    Posting(key, "bcd", t),
                                    Posting(key, "abc", other)})
                  .ok());

  auto by_key = GetByKeysSync(3, {{key, {}}});
  ASSERT_TRUE(by_key.ok()) << by_key.status().ToString();
  ASSERT_EQ(by_key->size(), 1u);
  const std::vector<Triple>& found = by_key->begin()->second;
  EXPECT_EQ(found.size(), 2u);
  EXPECT_EQ(std::count(found.begin(), found.end(), t), 1);
  EXPECT_EQ(std::count(found.begin(), found.end(), other), 1);

  auto united = Collect([this, &key](TripleStore::TriplesCallback cb) {
    stores_[3]->GetUnionByKeys({{key, {}}}, std::move(cb));
  });
  ASSERT_TRUE(united.ok()) << united.status().ToString();
  EXPECT_EQ(*united, (std::vector<Triple>{t, other}));
}

// The union over several keys holds each triple once, in the order of
// its identity bytes: the order a map from identity to triple over the
// keys' GetByKeys answers gives.
TEST_F(TripleStoreTest, UnionByKeysIsTheIdentityOrderedUnion) {
  std::vector<pgrid::Key> keys;
  for (const char* gram : {"g#t#aa", "g#t#mm", "g#t#zz", "g#t#empty"}) {
    keys.push_back(pgrid::OpHash(gram));
  }
  std::vector<pgrid::Entry> postings;
  for (int i = 0; i < 30; ++i) {
    // Identities order by OID length, then bytes: not insertion order.
    const Triple t("o" + std::to_string((i * 7) % 30), "t",
                   Value::String("v" + std::to_string(i)));
    postings.push_back(Posting(keys[static_cast<size_t>(i % 3)], "g1", t));
    if (i % 4 == 0) {
      postings.push_back(Posting(keys[static_cast<size_t>((i + 1) % 3)],
                                 "g2", t));
    }
  }
  // Not a triple id: dropped by both reads.
  pgrid::Entry foreign;
  foreign.key = keys[0];
  foreign.id = "x#not-a-triple";
  postings.push_back(foreign);
  ASSERT_TRUE(InsertEntriesSync(0, postings).ok());

  pgrid::KeySuffixes asked;
  for (const pgrid::Key& key : keys) asked[key];
  auto by_key = GetByKeysSync(5, asked);
  ASSERT_TRUE(by_key.ok()) << by_key.status().ToString();
  std::map<std::string, Triple> reference;
  for (const auto& [key, triples] : *by_key) {
    for (const Triple& t : triples) reference.emplace(t.Identity(), t);
  }
  std::vector<Triple> want;
  for (const auto& [identity, t] : reference) want.push_back(t);
  ASSERT_EQ(want.size(), 30u);

  auto united = Collect([this, &asked](TripleStore::TriplesCallback cb) {
    stores_[5]->GetUnionByKeys(asked, std::move(cb));
  });
  ASSERT_TRUE(united.ok()) << united.status().ToString();
  EXPECT_EQ(*united, want);
}

}  // namespace
}  // namespace triple
}  // namespace unistore
