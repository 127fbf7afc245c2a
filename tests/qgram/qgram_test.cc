#include "qgram/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "core/datagen.h"
#include "triple/index.h"

namespace unistore {
namespace qgram {
namespace {

TEST(QGramTest, ExtractionCountsAndPadding) {
  auto grams = ExtractQGrams("abc", 3);
  // |s| + q - 1 = 5 grams with 2-fold padding.
  ASSERT_EQ(grams.size(), 5u);
  EXPECT_EQ(grams[0], std::string(2, kPadChar) + "a");
  EXPECT_EQ(grams[2], "abc");
  EXPECT_EQ(grams[4], std::string("c") + std::string(2, kPadChar));
}

TEST(QGramTest, EmptyString) {
  auto grams = ExtractQGrams("", 3);
  // Padding only: q - 1 grams.
  EXPECT_EQ(grams.size(), 2u);
}

TEST(QGramTest, DistinctRemovesDuplicates) {
  auto all = ExtractQGrams("aaaa", 2);
  auto distinct = DistinctQGrams("aaaa", 2);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_LT(distinct.size(), all.size());
  EXPECT_EQ(distinct.size(), 3u);  // #a, aa, a#
}

TEST(QGramTest, GramOverlapMultiset) {
  EXPECT_EQ(GramOverlap({"ab", "bc", "bc"}, {"bc", "bc", "cd"}), 2u);
  EXPECT_EQ(GramOverlap({}, {"x"}), 0u);
  EXPECT_EQ(GramOverlap({"a", "b"}, {"b", "a"}), 2u);
}

TEST(QGramTest, CountFilterThresholdFormula) {
  // |s|=|t|=10, q=3, k=1: threshold = 12 - 3 = 9.
  EXPECT_EQ(CountFilterThreshold(10, 10, 3, 1), 9);
  // Lax threshold can go non-positive: the filter is then vacuous.
  EXPECT_LE(CountFilterThreshold(3, 3, 3, 2), 0);
}

// The count filter's defining property: it never rejects a true match.
class CountFilterProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CountFilterProperty, NoFalseNegatives) {
  const size_t k = GetParam();
  Rng rng(1000 + k);
  for (int iter = 0; iter < 300; ++iter) {
    // Random base string, then apply exactly up to k random edits.
    std::string base;
    size_t len = 6 + rng.NextBounded(12);
    for (size_t i = 0; i < len; ++i) {
      base.push_back(static_cast<char>('a' + rng.NextBounded(6)));
    }
    std::string mutated = base;
    for (size_t e = 0; e < k; ++e) {
      mutated = core::InjectTypo(mutated, &rng);
    }
    size_t dist = EditDistance(base, mutated);
    // InjectTypo's transposition costs 2 Levenshtein edits; skip samples
    // that drifted past the budget (they are not "true matches").
    if (dist > k) continue;

    auto grams_a = ExtractQGrams(base, kDefaultQ);
    auto grams_b = ExtractQGrams(mutated, kDefaultQ);
    int64_t overlap = static_cast<int64_t>(GramOverlap(grams_a, grams_b));
    int64_t threshold = CountFilterThreshold(base.size(), mutated.size(),
                                             kDefaultQ, k);
    EXPECT_GE(overlap, threshold)
        << "base=" << base << " mutated=" << mutated << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(EditBudgets, CountFilterProperty,
                         ::testing::Values(0, 1, 2, 3));

// True iff some gram of `selected` is among the grams of `value`.
bool SharesAGram(const std::vector<std::string>& selected,
                 const std::string& value) {
  const auto grams = DistinctQGrams(value, kDefaultQ);
  for (const auto& g : selected) {
    if (std::binary_search(grams.begin(), grams.end(), g)) return true;
  }
  return false;
}

// The edist selection's defining property: every string within k edits
// shares a selected gram, so the posting lookups find every match.
TEST_P(CountFilterProperty, SelectedGramsHitEveryMatch) {
  const size_t k = GetParam();
  Rng rng(2000 + k);
  for (int iter = 0; iter < 300; ++iter) {
    std::string base;
    size_t len = 3 + rng.NextBounded(15);
    for (size_t i = 0; i < len; ++i) {
      base.push_back(static_cast<char>('a' + rng.NextBounded(6)));
    }
    auto selected = SelectGrams(base, kDefaultQ, k * kDefaultQ + 1,
                                /*interior_only=*/false);
    if (selected.empty()) {
      // Only when the count filter is vacuous.
      EXPECT_LE(CountFilterThreshold(base.size(), base.size(), kDefaultQ, k),
                0);
      continue;
    }
    std::string mutated = base;
    for (size_t e = 0; e < k; ++e) mutated = core::InjectTypo(mutated, &rng);
    if (EditDistance(base, mutated) > k) continue;
    EXPECT_TRUE(SharesAGram(selected, mutated))
        << "base=" << base << " mutated=" << mutated << " k=" << k;
  }
}

TEST(QGramTest, EdistSelectionPrefersInteriorGrams) {
  // |t| = 4, q = 3, k = 1: budget 4 of 6 positions. Both interior grams,
  // then the two one-pad grams; never a two-pad gram.
  auto selected = SelectGrams("ICDE", 3, 4, /*interior_only=*/false);
  std::set<std::string> got(selected.begin(), selected.end());
  const std::string pad(1, kPadChar);
  EXPECT_EQ(got, (std::set<std::string>{"ICD", "CDE", pad + "IC",
                                        "DE" + pad}));
}

TEST(QGramTest, EdistSelectionCountsRepeatedGrams) {
  // "aaaa" pads to 6 positions and "aaa" holds two of them: it alone
  // covers a budget of 2, and two more grams a budget of 4.
  EXPECT_EQ(SelectGrams("aaaa", 3, 2, /*interior_only=*/false),
            std::vector<std::string>{"aaa"});
  auto selected = SelectGrams("aaaa", 3, 4, /*interior_only=*/false);
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0], "aaa");
}

TEST(QGramTest, SubstringSelectionTakesTheMiddleInteriorGram) {
  // Interior grams of "ranking": ran ank nki kin ing; the middle is nki.
  EXPECT_EQ(SelectGrams("ranking", 3, 1, /*interior_only=*/true),
            std::vector<std::string>{"nki"});
  // An even count takes the lower of the two middle grams.
  EXPECT_EQ(SelectGrams("gossip", 3, 1, /*interior_only=*/true),
            std::vector<std::string>{"oss"});
  // Exactly q characters: the needle is its one interior gram.
  EXPECT_EQ(SelectGrams("abc", 3, 1, /*interior_only=*/true),
            std::vector<std::string>{"abc"});
}

TEST(QGramTest, SubstringSelectionNeedsAnInteriorGram) {
  EXPECT_TRUE(SelectGrams("ab", 3, 1, /*interior_only=*/true).empty());
  EXPECT_TRUE(SelectGrams("", 3, 1, /*interior_only=*/true).empty());
  // Padding grams could still reach the budget; they are not implied.
  EXPECT_FALSE(SelectGrams("ab", 3, 1, /*interior_only=*/false).empty());
}

TEST(QGramTest, SelectionBeyondTheGramsInPlayIsEmpty) {
  // |t| + q - 1 = 6 positions cannot cover k = 2's budget of 7: the
  // threshold is vacuous.
  EXPECT_TRUE(SelectGrams("ICDE", 3, 7, /*interior_only=*/false).empty());
  EXPECT_LE(CountFilterThreshold(4, 4, 3, 2), 0);
  EXPECT_TRUE(SelectGrams("abcd", 3, 3, /*interior_only=*/true).empty());
}

// The substring selection's defining property: the gram lies inside the
// needle, so every string containing the needle holds it.
TEST(QGramTest, SubstringGramIsInEveryContainingString) {
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    auto random_string = [&rng](size_t len) {
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.NextBounded(4)));
      }
      return s;
    };
    const std::string needle = random_string(3 + rng.NextBounded(8));
    const std::string haystack = random_string(rng.NextBounded(6)) + needle +
                                 random_string(rng.NextBounded(6));
    auto selected = SelectGrams(needle, kDefaultQ, 1, /*interior_only=*/true);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_NE(needle.find(selected[0]), std::string::npos);
    EXPECT_TRUE(SharesAGram(selected, haystack))
        << "needle=" << needle << " haystack=" << haystack;
  }
}

TEST(QGramTest, PostingEntriesOnlyForStrings) {
  triple::Triple str_triple("o1", "series", triple::Value::String("ICDE"));
  triple::Triple num_triple("o1", "year", triple::Value::Int(2006));
  EXPECT_FALSE(EntriesForTripleQGrams(str_triple, 3, 1).empty());
  EXPECT_TRUE(EntriesForTripleQGrams(num_triple, 3, 1).empty());
}

TEST(QGramTest, PostingEntriesOnePerDistinctGram) {
  triple::Triple t("o1", "series", triple::Value::String("ICDE"));
  auto entries = EntriesForTripleQGrams(t, 3, 1);
  EXPECT_EQ(entries.size(), DistinctQGrams("ICDE", 3).size());
  std::set<std::string> ids;
  for (const auto& e : entries) {
    ids.insert(e.id);
    auto decoded = triple::DecodeEntryTriple(e.id);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, t);
  }
  EXPECT_EQ(ids.size(), entries.size());
}

TEST(QGramTest, PostingKeysGroupByAttributeAndGram) {
  // Same gram + same attribute -> same key (shared posting bucket).
  EXPECT_EQ(QGramKey("series", "ICD"), QGramKey("series", "ICD"));
  // Different attribute -> different bucket.
  EXPECT_NE(QGramKey("series", "ICD"), QGramKey("name", "ICD"));
}

TEST(QGramTest, LongAttributeNamesShareOnePostingKey) {
  EXPECT_TRUE(GramsHaveOwnKeys("title", 3));
  // "g#published_#" + a gram: exactly 16 characters.
  EXPECT_TRUE(GramsHaveOwnKeys("published_", 3));
  EXPECT_FALSE(GramsHaveOwnKeys("published_in", 3));
  EXPECT_FALSE(GramsHaveOwnKeys("has_published", 3));
  EXPECT_EQ(QGramKey("has_published", "abc"),
            QGramKey("has_published", "xyz"));
  EXPECT_NE(QGramKey("published_", "abc"), QGramKey("published_", "abd"));
}

TEST(QGramTest, PostingsWrittenOnlyWhereAPlanCanReadThem) {
  // The writer asks the planner's question: an attribute whose grams
  // share one key gets no postings. "published_" is the 16-character
  // boundary ("g#published_#" + a gram).
  for (const std::string attr : {"title", "series", "published_",
                                 "published_in", "has_published",
                                 "has_published_1"}) {
    triple::Triple t("o1", attr, triple::Value::String("Similarity"));
    EXPECT_EQ(EntriesForTripleQGrams(t, 3, 1).empty(),
              !GramsHaveOwnKeys(attr, 3))
        << attr;
    EXPECT_EQ(EntriesForTripleQGrams(t, 3, 1, /*deleted=*/true).empty(),
              !GramsHaveOwnKeys(attr, 3))
        << attr;
  }
  EXPECT_FALSE(GramsHaveOwnKeys("has_published_1", 3));
  // The length rule is the rule on the index string itself.
  for (size_t len = 0; len <= pgrid::kCharsPerKey; ++len) {
    const std::string attr(len, 'a');
    EXPECT_EQ(GramsHaveOwnKeys(attr, 3),
              QGramIndexString(attr, "abc").size() <= pgrid::kCharsPerKey)
        << len;
  }
}

TEST(QGramTest, SharedGramLandsInSharedBucket) {
  triple::Triple a("o1", "series", triple::Value::String("ICDE"));
  triple::Triple b("o2", "series", triple::Value::String("ICDM"));
  auto ea = EntriesForTripleQGrams(a, 3, 1);
  auto eb = EntriesForTripleQGrams(b, 3, 1);
  // "ICD" is a gram of both; they must share at least one key.
  bool shared = false;
  for (const auto& x : ea) {
    for (const auto& y : eb) {
      if (x.key == y.key) shared = true;
    }
  }
  EXPECT_TRUE(shared);
}

}  // namespace
}  // namespace qgram
}  // namespace unistore
