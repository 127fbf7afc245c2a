#include "triple/index.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/codec.h"

namespace unistore {
namespace triple {
namespace {

Triple ExampleTriple() {
  return Triple("a12", "confname", Value::String("ICDE 2006 - WS"));
}

TEST(IndexTest, ThreeEntriesPerTriple) {
  auto entries = EntriesForTriple(ExampleTriple(), /*version=*/1);
  ASSERT_EQ(entries.size(), 3u);
  // Each id is its index's tag followed by the full triple, so the ids
  // differ and every one of them carries the same triple.
  const std::string identity = ExampleTriple().Identity();
  EXPECT_EQ(entries[0].id, "o#" + identity);
  EXPECT_EQ(entries[1].id, "a#" + identity);
  EXPECT_EQ(entries[2].id, "v#" + identity);
  EXPECT_NE(entries[0].id, entries[1].id);
  EXPECT_NE(entries[1].id, entries[2].id);
}

TEST(IndexTest, IndexStringsMatchPaperLayout) {
  Triple t = ExampleTriple();
  EXPECT_EQ(IndexString(IndexKind::kOid, t), "o#a12");
  EXPECT_EQ(IndexString(IndexKind::kAttrValue, t),
            "a#confname#sICDE 2006 - WS");
  EXPECT_EQ(IndexString(IndexKind::kValue, t), "v#sICDE 2006 - WS");
}

TEST(IndexTest, EntriesDecodeBackToTriple) {
  Triple t = ExampleTriple();
  auto entries = EntriesForTriple(t, 5);
  auto triples = DecodeTriples(entries);
  ASSERT_EQ(triples.size(), 3u);
  for (const auto& got : triples) EXPECT_EQ(got, t);
}

TEST(IndexTest, TombstoneEntriesAreDeleted) {
  auto entries = EntriesForTriple(ExampleTriple(), 7, /*deleted=*/true);
  for (const auto& e : entries) {
    EXPECT_TRUE(e.deleted);
    EXPECT_EQ(e.version, 7u);
  }
}

TEST(IndexTest, OidKeyMatchesEntryKey) {
  Triple t = ExampleTriple();
  auto entries = EntriesForTriple(t, 1);
  EXPECT_EQ(OidKey("a12"), entries[0].key);
  EXPECT_EQ(AttrValueKey("confname", t.value), entries[1].key);
  EXPECT_EQ(ValueKey(t.value), entries[2].key);
}

TEST(IndexTest, AttrRangeCoversAllValuesOfAttribute) {
  pgrid::KeyRange range = AttrRange("year");
  for (int year = 1990; year <= 2026; ++year) {
    Triple t("x", "year", Value::Int(year));
    EXPECT_TRUE(range.Contains(IndexKey(IndexKind::kAttrValue, t)))
        << year;
  }
  // Other attributes stay outside... up to 8-char key truncation: "year" vs
  // "age" differ within the first 8 characters of "a#year#"/"a#age#".
  Triple other("x", "age", Value::Int(2000));
  EXPECT_FALSE(range.Contains(IndexKey(IndexKind::kAttrValue, other)));
}

TEST(IndexTest, AttrValueRangeCoversNumericInterval) {
  pgrid::KeyRange range =
      AttrValueRange("year", Value::Int(2000), Value::Int(2005));
  for (int year = 2000; year <= 2005; ++year) {
    Triple t("x", "year", Value::Int(year));
    EXPECT_TRUE(range.Contains(IndexKey(IndexKind::kAttrValue, t)))
        << year;
  }
  // Covering ranges may include extra keys (post-filtered), but values far
  // outside must be excluded... note key truncation: "a#year#n..." — the
  // first 8 chars are "a#year#n", identical for all years, so exclusion
  // happens via the encoded number prefix only for wide gaps.
  Triple far("x", "year", Value::Int(999999));
  (void)far;  // Truncation may keep nearby years inside; that is allowed.
}

TEST(IndexTest, NullBoundsSpanWholeAttribute) {
  pgrid::KeyRange open = AttrValueRange("age", Value::Null(), Value::Null());
  pgrid::KeyRange whole = AttrRange("age");
  EXPECT_EQ(open.lo, whole.lo);
  EXPECT_EQ(open.hi, whole.hi);
}

TEST(IndexTest, AttrPrefixRangeCoversStringPrefixes) {
  pgrid::KeyRange range = AttrPrefixRange("series", "IC");
  Triple icde("x", "series", Value::String("ICDE"));
  EXPECT_TRUE(range.Contains(IndexKey(IndexKind::kAttrValue, icde)));
  Triple vldb("x", "series", Value::String("VLDB"));
  EXPECT_FALSE(range.Contains(IndexKey(IndexKind::kAttrValue, vldb)));
}

TEST(IndexTest, DecodeTriplesSkipsGarbage) {
  auto entries = EntriesForTriple(ExampleTriple(), 1);
  pgrid::Entry garbage;
  garbage.key = entries[0].key;
  garbage.id = "\xFF\xFE not a triple";
  entries.push_back(garbage);
  // A known tag does not make an id a triple: a truncated body and
  // trailing bytes are rejected too.
  garbage.id = entries[0].id.substr(0, entries[0].id.size() - 1);
  entries.push_back(garbage);
  garbage.id = entries[0].id + "x";
  entries.push_back(garbage);
  EXPECT_EQ(DecodeTriples(entries).size(), 3u);
}

TEST(IndexTest, IdentityDistinguishesTriples) {
  Triple a("o1", "name", Value::String("x"));
  Triple b("o1", "name", Value::String("y"));
  Triple c("o2", "name", Value::String("x"));
  EXPECT_NE(a.Identity(), b.Identity());
  EXPECT_NE(a.Identity(), c.Identity());
  EXPECT_EQ(a.Identity(), Triple("o1", "name", Value::String("x")).Identity());
  // Values an index key cannot tell apart are still distinct triples:
  // 2^53 and 2^53 + 1 round to one double, 3 and 3.0 compare equal.
  const int64_t big = int64_t{1} << 53;
  EXPECT_NE(Triple("o1", "n", Value::Int(big)).Identity(),
            Triple("o1", "n", Value::Int(big + 1)).Identity());
  EXPECT_NE(Triple("o1", "n", Value::Int(3)).Identity(),
            Triple("o1", "n", Value::Real(3.0)).Identity());
}

TEST(IndexTest, PostingIdDecodesToItsTriple) {
  const Triple t = ExampleTriple();
  // A gram may hold any byte, the length prefix keeps it apart from the
  // triple that follows.
  for (const std::string& gram :
       std::vector<std::string>{"ICD", "\x02\x02I", "#\x1F#"}) {
    const std::string id = PostingId(gram, t.Identity());
    EXPECT_EQ(id.substr(0, 2), "g#");
    auto decoded = DecodeEntryTriple(id);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, t);
  }
}

// An id's body is the triple's identity under every kind, so reads
// dedupe on the bytes that arrived.
TEST(IndexTest, IdBodyIsTheIdentityForEveryKind) {
  for (const Triple& t :
       {ExampleTriple(), Triple("p1", "year", Value::Int(2006)),
        Triple("", "", Value::Null()), Triple("o#", "a#", Value::Real(0.5))}) {
    const std::string identity = t.Identity();
    std::vector<std::string> ids;
    for (const pgrid::Entry& e : EntriesForTriple(t, 1)) ids.push_back(e.id);
    for (const std::string& gram :
         std::vector<std::string>{"ICD", "", "\x02\x02I"}) {
      ids.push_back(PostingId(gram, identity));
    }
    ASSERT_EQ(ids.size(), 6u);
    std::string tags;
    for (const std::string& id : ids) {
      tags += id.substr(0, 2);
      auto body = EntryIdBody(id);
      ASSERT_TRUE(body.ok()) << body.status().ToString();
      EXPECT_EQ(*body, identity) << id.substr(0, 2);
    }
    EXPECT_EQ(tags, "o#a#v#g#g#g#");
  }
  EXPECT_FALSE(EntryIdBody("x#abc").ok());
  EXPECT_FALSE(EntryIdBody("o").ok());
  // A posting whose gram runs past the id has no body.
  EXPECT_FALSE(EntryIdBody(std::string("g#\x05" "ab")).ok());
}

}  // namespace
}  // namespace triple
}  // namespace unistore
