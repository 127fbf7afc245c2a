#include "pgrid/ophash.h"

#include <algorithm>

namespace unistore {
namespace pgrid {
namespace {

Key HashWithPadding(std::string_view s, bool pad_ones) {
  static_assert(kBitsPerRank == 8, "one rank per key byte");
  unsigned char bytes[Key::kMaxBytes];
  const size_t n = std::min(s.size(), kCharsPerKey);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = CharRank(static_cast<unsigned char>(s[i]));
  }
  std::fill(bytes + n, bytes + kCharsPerKey, pad_ones ? 0xFF : 0x00);
  return Key::FromBytes(bytes, kKeyBits);
}

}  // namespace

uint8_t CharRank(unsigned char c) { return c; }

Key OpHash(std::string_view s) { return HashWithPadding(s, false); }

Key OpHashUpper(std::string_view s) { return HashWithPadding(s, true); }

KeyRange PrefixRange(std::string_view p) {
  return KeyRange{OpHash(p), OpHashUpper(p)};
}

KeyRange StringRange(std::string_view lo, std::string_view hi) {
  // Weak monotonicity of OpHash makes [OpHash(lo), OpHashUpper(hi)] a
  // covering range for every string in [lo, hi]; truncation collisions at
  // the boundaries are removed by local post-filtering.
  return KeyRange{OpHash(lo), OpHashUpper(hi)};
}

}  // namespace pgrid
}  // namespace unistore
