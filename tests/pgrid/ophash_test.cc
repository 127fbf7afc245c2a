#include "pgrid/ophash.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/rng.h"

namespace unistore {
namespace pgrid {
namespace {

TEST(OpHashTest, FixedWidth) {
  EXPECT_EQ(OpHash("").size(), kKeyBits);
  EXPECT_EQ(OpHash("a").size(), kKeyBits);
  EXPECT_EQ(OpHash("a very long string beyond ten chars").size(), kKeyBits);
}

TEST(OpHashTest, RankTableIsStrictlyMonotone) {
  // Injectivity is load-bearing: any two bytes sharing a rank would break
  // weak monotonicity of the hash (suffixes after a collision compare
  // arbitrarily), which the property suite below would catch.
  for (int c = 0; c < 255; ++c) {
    EXPECT_LT(CharRank(static_cast<unsigned char>(c)),
              CharRank(static_cast<unsigned char>(c + 1)))
        << "rank collision/inversion at byte " << c;
  }
}

TEST(OpHashTest, OrderPreservedOnExamples) {
  EXPECT_LE(OpHash("apple").Compare(OpHash("banana")), 0);
  EXPECT_LE(OpHash("ICDE 2005").Compare(OpHash("ICDE 2006")), 0);
  EXPECT_LE(OpHash("a").Compare(OpHash("ab")), 0);
  EXPECT_LE(OpHash("1999").Compare(OpHash("2006")), 0);
}

TEST(OpHashTest, PrefixPreservation) {
  // Every string starting with "icde" hashes into [OpHash, OpHashUpper].
  Key lo = OpHash("icde");
  Key hi = OpHashUpper("icde");
  for (const char* s : {"icde", "icde 2006", "icde-ws", "icdezzzz"}) {
    Key h = OpHash(s);
    EXPECT_GE(h.Compare(lo), 0) << s;
    EXPECT_LE(h.Compare(hi), 0) << s;
  }
  EXPECT_GT(OpHash("icdf").Compare(hi), 0);
  EXPECT_LT(OpHash("icda").Compare(lo), 0);
}

TEST(OpHashTest, StringRangeCoversInterval) {
  KeyRange r = StringRange("k", "p");
  for (const char* s : {"k", "kangaroo", "mmm", "ozzz", "p"}) {
    EXPECT_TRUE(r.Contains(OpHash(s))) << s;
  }
  EXPECT_FALSE(r.Contains(OpHash("j")));
  // "q..." is above: hash(q) > hash(p) strictly (distinct lowercase ranks).
  EXPECT_FALSE(r.Contains(OpHash("q")));
}

// Property sweep: weak monotonicity over random string pairs, several
// alphabets (parameterized by seed & alphabet).
// `name` is what gtest prints for the case (and so what CTest names it):
// the default printout is the struct's raw bytes, which include a heap
// pointer and change from run to run.
struct MonotonicityCase {
  const char* name;
  uint64_t seed;
  std::string alphabet;
};

void PrintTo(const MonotonicityCase& c, std::ostream* os) { *os << c.name; }

class OpHashMonotonicity
    : public ::testing::TestWithParam<MonotonicityCase> {};

TEST_P(OpHashMonotonicity, WeaklyMonotone) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  auto make = [&]() {
    std::string s;
    size_t len = rng.NextBounded(16);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(param.alphabet[rng.NextBounded(param.alphabet.size())]);
    }
    return s;
  };
  for (int iter = 0; iter < 1000; ++iter) {
    std::string a = make(), b = make();
    if (a > b) std::swap(a, b);
    EXPECT_LE(OpHash(a).Compare(OpHash(b)), 0)
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Alphabets, OpHashMonotonicity,
    ::testing::Values(
        MonotonicityCase{"Lowercase", 1, "abcdefghijklmnopqrstuvwxyz"},
        MonotonicityCase{"Abc", 2, "abc"},
        MonotonicityCase{"Digits", 3, "0123456789"},
        MonotonicityCase{"MixedAscii", 4, "aA0 !~"},
        MonotonicityCase{"HighBytes", 5,
                         std::string("\x01\x7F\xFE abz19", 9)}));

// Property: prefix range always contains extensions of the prefix.
TEST(OpHashTest, PropertyPrefixRangeContainsExtensions) {
  Rng rng(77);
  const std::string alphabet = "abcdefghij0123456789";
  for (int iter = 0; iter < 500; ++iter) {
    std::string prefix;
    size_t plen = rng.NextBounded(8);
    for (size_t i = 0; i < plen; ++i) {
      prefix.push_back(alphabet[rng.NextBounded(alphabet.size())]);
    }
    std::string ext = prefix;
    size_t elen = rng.NextBounded(8);
    for (size_t i = 0; i < elen; ++i) {
      ext.push_back(alphabet[rng.NextBounded(alphabet.size())]);
    }
    KeyRange range = PrefixRange(prefix);
    EXPECT_TRUE(range.Contains(OpHash(ext)))
        << "prefix=\"" << prefix << "\" ext=\"" << ext << "\"";
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
