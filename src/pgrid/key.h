// Binary trie keys and paths.
//
// P-Grid organizes peers as the leaves of a virtual binary trie: a peer's
// *path* is a bit string, and the peer is responsible for every data key
// that starts with that path. Both paths and data keys are represented by
// Key. Data keys produced by the order-preserving hash have a fixed width
// of kKeyBits (ophash.h); paths are variable-length prefixes.
#ifndef UNISTORE_PGRID_KEY_H_
#define UNISTORE_PGRID_KEY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/result.h"

namespace unistore {
namespace pgrid {

/// Bits of a full-width data key, and the most any Key holds.
constexpr size_t kKeyBits = 128;

/// \brief An immutable bit string of at most kKeyBits bits.
///
/// A fixed-width value: two 64-bit words holding the bits MSB-first,
/// zero-padded past size(), plus the bit length. Copies never allocate,
/// and every trie operation is a handful of word operations. The padding
/// is kept zero, so two keys are equal iff their words and lengths are.
class Key {
 public:
  /// Bytes of the packed MSB-first form (ToBytes / FromBytes).
  static constexpr size_t kMaxBytes = kKeyBits / 8;

  /// The empty key — the trie root (responsible for everything).
  Key() = default;

  /// Builds from a string of at most kKeyBits '0'/'1' characters. Aborts
  /// on other input (programming error, not data error).
  static Key FromBits(std::string_view bits);

  /// Builds from the first ByteLength(`bit_len`) bytes of the packed
  /// MSB-first form at `bytes`; bits at and past `bit_len` are cleared.
  /// Requires bit_len <= kKeyBits. Inline: run cursors call it per record.
  static Key FromBytes(const unsigned char* bytes, size_t bit_len) {
    Key k;
    k.len_ = static_cast<uint32_t>(bit_len);
    if (bit_len == kKeyBits) {  // Every data key.
      k.words_[0] = LoadWord(bytes);
      k.words_[1] = LoadWord(bytes + 8);
      return k;
    }
    unsigned char padded[kMaxBytes] = {};
    std::memcpy(padded, bytes, ByteLength(bit_len));
    k.words_[0] = LoadWord(padded);
    k.words_[1] = LoadWord(padded + 8);
    k.ClearFrom(bit_len);
    return k;
  }

  /// Bytes that hold `bit_len` packed bits.
  static constexpr size_t ByteLength(size_t bit_len) {
    return (bit_len + 7) / 8;
  }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// Bit at position `i` (0 = most significant). Requires i < size().
  bool bit(size_t i) const {
    return ((words_[i >> 6] >> (63 - (i & 63))) & 1) != 0;
  }

  /// First `len` bits (len <= size()).
  Key Prefix(size_t len) const;

  /// This key extended by one bit. Requires size() < kKeyBits.
  Key Child(bool one) const;

  /// This key with the last bit flipped. Requires non-empty.
  Key Sibling() const;

  /// This key extended to `width` (<= kKeyBits) bits with 0s
  /// (`ones`=false) or 1s. If already >= width, returns *this unchanged.
  Key PadTo(size_t width, bool ones) const;

  /// True iff this key is a prefix of `other` (every key is a prefix of
  /// itself; the empty key is a prefix of everything).
  bool IsPrefixOf(const Key& other) const {
    return len_ <= other.len_ && CommonPrefixLength(other) == len_;
  }

  /// Length of the longest common prefix with `other`: the leading zeros
  /// of the words' XOR, capped by the shorter length.
  size_t CommonPrefixLength(const Key& other) const {
    const size_t n = len_ < other.len_ ? len_ : other.len_;
    size_t common = kKeyBits;
    if (const uint64_t x = words_[0] ^ other.words_[0]; x != 0) {
      common = static_cast<size_t>(__builtin_clzll(x));
    } else if (const uint64_t y = words_[1] ^ other.words_[1]; y != 0) {
      common = 64 + static_cast<size_t>(__builtin_clzll(y));
    }
    return common < n ? common : n;
  }

  /// Lexicographic bit comparison; a proper prefix sorts before its
  /// extensions. Returns <0, 0, >0. With zero padding this is the word
  /// comparison, ties broken by length.
  int Compare(const Key& other) const {
    if (words_[0] != other.words_[0]) {
      return words_[0] < other.words_[0] ? -1 : 1;
    }
    if (words_[1] != other.words_[1]) {
      return words_[1] < other.words_[1] ? -1 : 1;
    }
    return len_ < other.len_ ? -1 : (len_ > other.len_ ? 1 : 0);
  }

  /// \brief The next sibling subtree in key order.
  ///
  /// "0110" -> "0111", "0111" -> "1", "111" -> empty (none). This is the
  /// step of the sequential (min-first) range walk: after exhausting the
  /// subtree under this prefix, the walk continues at Successor().
  /// Returns an empty key when this is the right-most prefix.
  Key Successor() const;

  /// True for the all-ones key (no successor exists).
  bool IsMax() const;

  /// \brief This fixed-width key plus one ("0110" -> "0111",
  /// "0111" -> "1000"). Returns an empty key on overflow (all ones) —
  /// callers use that as the "past the end" marker of a coverage frontier.
  Key Increment() const;

  /// \brief This fixed-width key minus one ("0111" -> "0110",
  /// "1000" -> "0111"). Returns an empty key on underflow (all zeros).
  Key Decrement() const;

  /// Word `i` (0 = most significant) of the packed, zero-padded bits.
  uint64_t word(size_t i) const { return words_[i]; }

  /// Writes all kMaxBytes bytes of the packed MSB-first form to `out`
  /// (the bytes past ByteLength(size()) are zero).
  void ToBytes(unsigned char* out) const {
    StoreWord(words_[0], out);
    StoreWord(words_[1], out + 8);
  }

  /// The ByteLength(size()) bytes of the packed form, written to `buf`
  /// (the one byte view every codec and checksum of a key uses).
  std::string_view Packed(unsigned char (&buf)[kMaxBytes]) const {
    ToBytes(buf);
    return std::string_view(reinterpret_cast<const char*>(buf),
                            ByteLength(len_));
  }

  /// True iff the padding bits (those past `bit_len`) of `last_byte`, the
  /// last byte of a packed form, are zero: the rule every decoder checks.
  static bool PaddingIsZero(size_t bit_len, unsigned char last_byte) {
    const size_t tail_bits = bit_len % 8;
    return tail_bits == 0 || (last_byte & ((1u << (8 - tail_bits)) - 1)) == 0;
  }

  /// The bits as '0'/'1' characters (debugging, traces, tests).
  std::string bits() const;
  std::string ToString() const { return empty() ? "<root>" : bits(); }

  bool operator==(const Key& other) const {
    return words_[0] == other.words_[0] && words_[1] == other.words_[1] &&
           len_ == other.len_;
  }
  bool operator!=(const Key& other) const { return !(*this == other); }
  bool operator<(const Key& other) const { return Compare(other) < 0; }
  bool operator<=(const Key& other) const { return Compare(other) <= 0; }
  bool operator>(const Key& other) const { return Compare(other) > 0; }
  bool operator>=(const Key& other) const { return Compare(other) >= 0; }

 private:
  /// Big-endian 8-byte load and store (the packed form is MSB-first).
  static uint64_t LoadWord(const unsigned char* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return __builtin_bswap64(v);
  }
  static void StoreWord(uint64_t v, unsigned char* p) {
    v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof(v));
  }
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "LoadWord/StoreWord assume a little-endian host");

  /// The `n` (<= 64) low bits set.
  static uint64_t LowOnes(size_t n) {
    return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  }

  /// Sets bit `i` (< kKeyBits) to one; the length is not touched.
  void SetBit(size_t i) { words_[i >> 6] |= uint64_t{1} << (63 - (i & 63)); }
  /// Clears every bit at and past `len` (the zero-padding invariant).
  void ClearFrom(size_t len) {
    if (len < 64) {
      words_[0] &= ~LowOnes(64 - len);
      words_[1] = 0;
    } else {
      words_[1] &= ~LowOnes(kKeyBits - len);
    }
  }

  uint64_t words_[2] = {0, 0};
  uint32_t len_ = 0;
};

static_assert(sizeof(Key) <= 24, "Key must stay a small fixed-width value");

/// \brief The one wire/disk codec of a Key: varint bit length, then
/// Key::ByteLength(length) bytes of the packed MSB-first bits.
void EncodeKey(const Key& key, BufferWriter* w);

/// Bytes EncodeKey appends for `key` (exact).
inline size_t EncodedKeySize(const Key& key) {
  return VarintLength(key.size()) + Key::ByteLength(key.size());
}

/// Decodes an EncodeKey'd key. Corruption for a length over kKeyBits,
/// nonzero padding bits in the last byte, or a truncated body.
Result<Key> DecodeKey(BufferReader* r);

/// \brief A closed interval [lo, hi] of fixed-width data keys.
struct KeyRange {
  Key lo;
  Key hi;

  bool Contains(const Key& key) const {
    return lo.Compare(key) <= 0 && key.Compare(hi) <= 0;
  }

  /// True iff the subtree under `prefix` intersects this range.
  bool IntersectsPrefix(const Key& prefix, size_t key_width) const;

  /// The intersection of this range with the subtree under `prefix`
  /// (caller must ensure IntersectsPrefix() first).
  KeyRange ClampToPrefix(const Key& prefix, size_t key_width) const;

  std::string ToString() const {
    return "[" + lo.ToString() + ", " + hi.ToString() + "]";
  }
};

/// \brief Splits `range` into up to `max_parts` disjoint consecutive
/// sub-ranges whose union is exactly `range` (keys of width `key_width`).
///
/// Splits happen on trie-subtree boundaries (the first bit where lo and hi
/// diverge), recursively, left-heavy — so every sub-range is a union of
/// whole subtrees and an envelope walk over it terminates at the peer
/// covering its hi. Returns fewer parts when the range cannot be split
/// further. The fan-out step of the batched envelope executor
/// (DESIGN.md §4).
std::vector<KeyRange> SplitRange(const KeyRange& range, size_t max_parts,
                                 size_t key_width);

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_KEY_H_
