#include "pgrid/key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

// Allocation-counting hook (one translation unit per test binary): Key
// copies and comparisons must never touch the heap.
#include "common/alloc_hook.h"
#include "common/codec.h"
#include "common/rng.h"
#include "pgrid/entry.h"
#include "pgrid/ophash.h"

namespace unistore {
namespace pgrid {
namespace {

TEST(KeyTest, EmptyKeyIsRoot) {
  Key k;
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.size(), 0u);
  EXPECT_EQ(k.ToString(), "<root>");
  EXPECT_TRUE(k.IsPrefixOf(Key::FromBits("0101")));
  EXPECT_TRUE(k.IsPrefixOf(Key()));
}

TEST(KeyTest, FromBitsAndAccessors) {
  Key k = Key::FromBits("0110");
  EXPECT_EQ(k.size(), 4u);
  EXPECT_FALSE(k.bit(0));
  EXPECT_TRUE(k.bit(1));
  EXPECT_TRUE(k.bit(2));
  EXPECT_FALSE(k.bit(3));
  EXPECT_EQ(k.bits(), "0110");
}

TEST(KeyTest, PrefixChildSibling) {
  Key k = Key::FromBits("0110");
  EXPECT_EQ(k.Prefix(2).bits(), "01");
  EXPECT_EQ(k.Child(true).bits(), "01101");
  EXPECT_EQ(k.Child(false).bits(), "01100");
  EXPECT_EQ(k.Sibling().bits(), "0111");
}

TEST(KeyTest, PadTo) {
  Key k = Key::FromBits("01");
  EXPECT_EQ(k.PadTo(5, false).bits(), "01000");
  EXPECT_EQ(k.PadTo(5, true).bits(), "01111");
  EXPECT_EQ(k.PadTo(1, true).bits(), "01");  // Already wider.
}

TEST(KeyTest, PrefixRelation) {
  Key a = Key::FromBits("01");
  Key b = Key::FromBits("0110");
  EXPECT_TRUE(a.IsPrefixOf(b));
  EXPECT_FALSE(b.IsPrefixOf(a));
  EXPECT_TRUE(a.IsPrefixOf(a));
  EXPECT_FALSE(Key::FromBits("00").IsPrefixOf(b));
}

TEST(KeyTest, CommonPrefixLength) {
  EXPECT_EQ(Key::FromBits("0110").CommonPrefixLength(Key::FromBits("0111")),
            3u);
  EXPECT_EQ(Key::FromBits("10").CommonPrefixLength(Key::FromBits("01")), 0u);
  EXPECT_EQ(Key::FromBits("01").CommonPrefixLength(Key::FromBits("0110")),
            2u);
  EXPECT_EQ(Key().CommonPrefixLength(Key::FromBits("1")), 0u);
}

TEST(KeyTest, CompareIsLexicographic) {
  EXPECT_LT(Key::FromBits("0"), Key::FromBits("1"));
  EXPECT_LT(Key::FromBits("01"), Key::FromBits("010"));  // Prefix first.
  EXPECT_LT(Key::FromBits("0011"), Key::FromBits("01"));
  EXPECT_EQ(Key::FromBits("01").Compare(Key::FromBits("01")), 0);
}

TEST(KeyTest, SuccessorWalksLeavesInOrder) {
  EXPECT_EQ(Key::FromBits("0110").Successor().bits(), "0111");
  EXPECT_EQ(Key::FromBits("0111").Successor().bits(), "1");
  EXPECT_EQ(Key::FromBits("0").Successor().bits(), "1");
  EXPECT_TRUE(Key::FromBits("111").Successor().empty());
  EXPECT_TRUE(Key::FromBits("111").IsMax());
  EXPECT_FALSE(Key::FromBits("110").IsMax());
}

TEST(KeyTest, SuccessorCoversBalancedTrieWalk) {
  // Walking successors from 000 visits all 8 leaves in order.
  Key k = Key::FromBits("000");
  std::vector<std::string> visited{k.bits()};
  while (true) {
    Key next = k.Successor();
    if (next.empty()) break;
    k = next.PadTo(3, false);
    visited.push_back(k.bits());
  }
  EXPECT_EQ(visited, (std::vector<std::string>{"000", "001", "010", "011",
                                               "100", "101", "110", "111"}));
}

TEST(KeyRangeTest, Contains) {
  KeyRange r{Key::FromBits("0010"), Key::FromBits("0110")};
  EXPECT_TRUE(r.Contains(Key::FromBits("0010")));
  EXPECT_TRUE(r.Contains(Key::FromBits("0100")));
  EXPECT_TRUE(r.Contains(Key::FromBits("0110")));
  EXPECT_FALSE(r.Contains(Key::FromBits("0001")));
  EXPECT_FALSE(r.Contains(Key::FromBits("0111")));
}

TEST(KeyRangeTest, IntersectsPrefix) {
  KeyRange r{Key::FromBits("0010"), Key::FromBits("0110")};
  EXPECT_TRUE(r.IntersectsPrefix(Key::FromBits("00"), 4));
  EXPECT_TRUE(r.IntersectsPrefix(Key::FromBits("01"), 4));
  EXPECT_FALSE(r.IntersectsPrefix(Key::FromBits("1"), 4));
  EXPECT_FALSE(r.IntersectsPrefix(Key::FromBits("0111"), 4));
  EXPECT_TRUE(r.IntersectsPrefix(Key(), 4));  // Root covers everything.
}

TEST(KeyRangeTest, ClampToPrefix) {
  KeyRange r{Key::FromBits("0010"), Key::FromBits("0110")};
  KeyRange clamped = r.ClampToPrefix(Key::FromBits("01"), 4);
  EXPECT_EQ(clamped.lo.bits(), "0100");
  EXPECT_EQ(clamped.hi.bits(), "0110");
  KeyRange inner = r.ClampToPrefix(Key::FromBits("00"), 4);
  EXPECT_EQ(inner.lo.bits(), "0010");
  EXPECT_EQ(inner.hi.bits(), "0011");
}

// Property: for random ranges and random prefixes, IntersectsPrefix agrees
// with a brute-force check over all keys of small width.
TEST(KeyRangeTest, PropertyIntersectionAgreesWithBruteForce) {
  constexpr size_t kWidth = 6;
  Rng rng(99);
  auto random_key = [&rng]() {
    std::string bits;
    for (size_t i = 0; i < kWidth; ++i) {
      bits.push_back(rng.NextBounded(2) ? '1' : '0');
    }
    return Key::FromBits(bits);
  };
  for (int iter = 0; iter < 500; ++iter) {
    Key a = random_key(), b = random_key();
    KeyRange range = (a <= b) ? KeyRange{a, b} : KeyRange{b, a};
    std::string pbits;
    size_t plen = rng.NextBounded(kWidth + 1);
    for (size_t i = 0; i < plen; ++i) {
      pbits.push_back(rng.NextBounded(2) ? '1' : '0');
    }
    Key prefix = Key::FromBits(pbits);

    bool brute = false;
    for (uint64_t v = 0; v < (1ULL << kWidth); ++v) {
      std::string bits;
      for (size_t i = 0; i < kWidth; ++i) {
        bits.push_back(((v >> (kWidth - 1 - i)) & 1) ? '1' : '0');
      }
      Key k = Key::FromBits(bits);
      if (prefix.IsPrefixOf(k) && range.Contains(k)) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(range.IntersectsPrefix(prefix, kWidth), brute)
        << "range=" << range.ToString() << " prefix=" << prefix.ToString();
  }
}

// --- Packed representation against a '0'/'1'-string model ---------------

static_assert(sizeof(Key) <= 24, "a Key is two words plus a length");

// The reference model: the bit-string semantics every Key operation must
// reproduce (the representation Key had before it was packed).
namespace model {

std::string Increment(std::string s) {
  size_t i = s.size();
  while (i > 0 && s[i - 1] == '1') s[--i] = '0';
  if (i == 0) return "";
  s[i - 1] = '1';
  return s;
}

std::string Decrement(std::string s) {
  size_t i = s.size();
  while (i > 0 && s[i - 1] == '0') s[--i] = '1';
  if (i == 0) return "";
  s[i - 1] = '0';
  return s;
}

std::string Successor(std::string s) {
  while (!s.empty() && s.back() == '1') s.pop_back();
  if (s.empty()) return "";
  s.back() = '1';
  return s;
}

size_t CommonPrefixLength(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

std::string PadTo(std::string s, size_t width, bool ones) {
  if (s.size() < width) s.append(width - s.size(), ones ? '1' : '0');
  return s;
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

using Range = std::pair<std::string, std::string>;

// SplitRange over bit strings, as specified in key.h.
void SplitInto(const Range& r, size_t parts, size_t width,
               std::vector<Range>* out) {
  const size_t diverge = CommonPrefixLength(r.first, r.second);
  if (parts <= 1 || diverge >= width || r.first.compare(r.second) >= 0) {
    out->push_back(r);
    return;
  }
  const std::string prefix = r.first.substr(0, diverge);
  SplitInto({r.first, PadTo(prefix + "0", width, true)}, (parts + 1) / 2,
            width, out);
  SplitInto({PadTo(prefix + "1", width, false), r.second}, parts / 2, width,
            out);
}

}  // namespace model

// Random bit strings of 0..kKeyBits bits that mostly share long prefixes:
// each is a prefix of one base string with its tail re-drawn from a random
// point, and lengths favour the word boundaries.
class KeyGen {
 public:
  explicit KeyGen(uint64_t seed) : rng_(seed) { NewBase(); }

  void NewBase() {
    base_.clear();
    for (size_t i = 0; i < kKeyBits; ++i) base_.push_back(Bit());
  }

  std::string Next() {
    static constexpr size_t kEdges[] = {0, 1, 7, 8, 9, 63, 64, 65, 120,
                                        127, 128};
    const size_t len = rng_.NextBounded(3) == 0
                           ? kEdges[rng_.NextBounded(std::size(kEdges))]
                           : rng_.NextBounded(kKeyBits + 1);
    std::string s = base_.substr(0, len);
    if (len > 0 && rng_.NextBounded(2) == 0) {
      for (size_t i = len - 1 - rng_.NextBounded(std::min<size_t>(len, 8));
           i < len; ++i) {
        s[i] = Bit();
      }
    }
    return s;
  }

 private:
  char Bit() { return rng_.NextBounded(2) ? '1' : '0'; }

  Rng rng_;
  std::string base_;
};

TEST(KeyPropertyTest, EveryOperationMatchesTheStringModel) {
  KeyGen gen(20261018);
  for (int iter = 0; iter < 20000; ++iter) {
    if (iter % 16 == 0) gen.NewBase();
    const std::string a = gen.Next();
    const std::string b = gen.Next();
    const Key ka = Key::FromBits(a);
    const Key kb = Key::FromBits(b);
    SCOPED_TRACE("a=" + a + " b=" + b);

    ASSERT_EQ(ka.bits(), a);
    ASSERT_EQ(ka.size(), a.size());
    ASSERT_EQ(ka.empty(), a.empty());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(ka.bit(i), a[i] == '1');

    const size_t cut = a.empty() ? 0 : iter % (a.size() + 1);
    ASSERT_EQ(ka.Prefix(cut).bits(), a.substr(0, cut));
    if (a.size() < kKeyBits) {
      ASSERT_EQ(ka.Child(false).bits(), a + "0");
      ASSERT_EQ(ka.Child(true).bits(), a + "1");
    }
    if (!a.empty()) {
      std::string flipped = a;
      flipped.back() = flipped.back() == '0' ? '1' : '0';
      ASSERT_EQ(ka.Sibling().bits(), flipped);
    }
    const size_t width = std::max<size_t>(a.size(), (iter * 37) % 129);
    ASSERT_EQ(ka.PadTo(width, false).bits(), model::PadTo(a, width, false));
    ASSERT_EQ(ka.PadTo(width, true).bits(), model::PadTo(a, width, true));

    ASSERT_EQ(ka.IsPrefixOf(kb),
              a.size() <= b.size() && b.compare(0, a.size(), a) == 0);
    ASSERT_EQ(ka.CommonPrefixLength(kb), model::CommonPrefixLength(a, b));
    ASSERT_EQ(ka.Compare(kb), model::Sign(a.compare(b)));
    ASSERT_EQ(ka == kb, a == b);
    ASSERT_EQ(ka < kb, a < b);

    ASSERT_EQ(ka.Successor().bits(), model::Successor(a));
    ASSERT_EQ(ka.IsMax(),
              !a.empty() && a.find('0') == std::string::npos);
    ASSERT_EQ(ka.Increment().bits(), model::Increment(a));
    ASSERT_EQ(ka.Decrement().bits(), model::Decrement(a));

    BufferWriter w;
    EncodeKey(ka, &w);
    ASSERT_EQ(w.size(), EncodedKeySize(ka));
    BufferReader r(w.buffer());
    auto decoded = DecodeKey(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(*decoded, ka);
    ASSERT_TRUE(r.AtEnd());
  }
}

TEST(KeyPropertyTest, SplitRangeMatchesTheStringModel) {
  KeyGen gen(7);
  for (int iter = 0; iter < 3000; ++iter) {
    if (iter % 8 == 0) gen.NewBase();
    const size_t width = iter % 3 == 0 ? 16 : kKeyBits;
    std::string lo =
        model::PadTo(gen.Next(), kKeyBits, false).substr(0, width);
    std::string hi =
        model::PadTo(gen.Next(), kKeyBits, true).substr(0, width);
    if (hi < lo) std::swap(lo, hi);
    const size_t parts = 1 + iter % 9;
    SCOPED_TRACE("lo=" + lo + " hi=" + hi);

    std::vector<model::Range> want;
    model::SplitInto({lo, hi}, parts, width, &want);
    const std::vector<KeyRange> got = SplitRange(
        KeyRange{Key::FromBits(lo), Key::FromBits(hi)}, parts, width);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].lo.bits(), want[i].first) << i;
      EXPECT_EQ(got[i].hi.bits(), want[i].second) << i;
    }
  }
}

TEST(KeyPropertyTest, CopyAndCompareDoNotAllocate) {
  const Key a = Key::FromBits(std::string(kKeyBits - 1, '1') + "0");
  const Key b = a.Prefix(70).PadTo(kKeyBits, /*ones=*/true);
  size_t sink = 0;
  const uint64_t allocs = alloc_hook::CountCalls([&] {
    for (int i = 0; i < 64; ++i) {
      Key copy = a;
      const Key moved = std::move(copy);
      sink += static_cast<size_t>(moved.Compare(b) + 1);
      sink += moved == b ? 1 : 0;
      sink += moved.CommonPrefixLength(b);
      sink += moved.Prefix(64).Child(true).IsPrefixOf(b) ? 1 : 0;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(sink, 0u);
}

// --- The one key codec ------------------------------------------------------

TEST(KeyCodecTest, RoundTripsAtByteAndWordEdges) {
  for (size_t len : {0, 1, 7, 8, 9, 127, 128}) {
    std::string bits;
    for (size_t i = 0; i < len; ++i) bits.push_back(i % 3 == 0 ? '1' : '0');
    const Key key = Key::FromBits(bits);
    BufferWriter w;
    EncodeKey(key, &w);
    EXPECT_EQ(w.size(), VarintLength(len) + (len + 7) / 8) << len;
    BufferReader r(w.buffer());
    auto decoded = DecodeKey(&r);
    ASSERT_TRUE(decoded.ok()) << len << ": " << decoded.status().message();
    EXPECT_EQ(decoded->bits(), bits);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(KeyCodecTest, FullWidthKeyTakesEighteenBytes) {
  const Key key = OpHash("a#title#Packed keys");
  ASSERT_EQ(key.size(), kKeyBits);
  BufferWriter w;
  EncodeKey(key, &w);
  EXPECT_EQ(w.size(), 18u);  // Varint 128 (2 bytes) + 16 key bytes.
  EXPECT_EQ(EncodedKeySize(key), 18u);
}

Status DecodeStatus(const std::string& bytes) {
  BufferReader r(bytes);
  return DecodeKey(&r).status();
}

TEST(KeyCodecTest, RejectsOverlongPaddedAndTruncatedKeys) {
  // 129 bits: varint 0x81 0x01, then 17 bytes.
  std::string overlong("\x81\x01", 2);
  overlong.append(17, '\0');
  EXPECT_EQ(DecodeStatus(overlong).code(), StatusCode::kCorruption);
  // 4 bits "1010" in one byte, one padding bit set.
  EXPECT_TRUE(DecodeStatus(std::string("\x04\xA0", 2)).ok());
  EXPECT_EQ(DecodeStatus(std::string("\x04\xA1", 2)).code(),
            StatusCode::kCorruption);
  // 128 bits with one body byte missing.
  std::string truncated("\x80\x01", 2);
  truncated.append(15, '\0');
  EXPECT_EQ(DecodeStatus(truncated).code(), StatusCode::kCorruption);
}

TEST(KeyCodecTest, EntryWithOverlongKeyIsRejected) {
  Entry e;
  e.key = OpHash("o#x");
  e.id = "id";
  BufferWriter w;
  e.Encode(&w);
  std::string bytes = w.Release();
  // The key's varint bit length 128 (0x80 0x01) becomes 129.
  ASSERT_EQ(bytes.substr(0, 2), std::string("\x80\x01", 2));
  bytes[0] = '\x81';
  BufferReader r(bytes);
  EXPECT_EQ(Entry::Decode(&r).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
