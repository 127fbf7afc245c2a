// Order- and prefix-preserving hashing of strings to trie keys.
//
// P-Grid's distinguishing feature (paper §2): "a prefix-preserving hash
// function assigns data ... to key partitions", and "an order-preserving
// hash function ... keeps semantic relations between data", enabling range
// and prefix queries directly on the overlay.
//
// Implementation: the first kCharsPerKey bytes of the input are emitted as
// 8-bit values, padding short strings with zero bits. Because the byte->rank
// map is the identity (injective and monotone), the only lossy operation is
// *truncation*, which is a prefix operation and therefore preserves weak
// monotonicity:
//
//  * weak monotonicity:  a <= b  =>  Hash(a) <= Hash(b)
//  * prefix preservation: all strings starting with p hash into
//    [OpHash(p), OpHashUpper(p)].
//
// (An earlier design compressed bytes into 6-bit buckets; a property test
// demonstrated that any non-injective byte map breaks weak monotonicity —
// two distinct bytes sharing a rank leave the order of the suffixes
// unconstrained — so the buckets were dropped.)
//
// Distinct strings sharing their first kCharsPerKey bytes collide; index
// lookups therefore always post-filter entries by the exact triple their
// id decodes to (triple/index.h).
#ifndef UNISTORE_PGRID_OPHASH_H_
#define UNISTORE_PGRID_OPHASH_H_

#include <cstdint>
#include <string_view>

#include "pgrid/key.h"

namespace unistore {
namespace pgrid {

/// Bits per character rank.
constexpr size_t kBitsPerRank = 8;
/// Characters of the input that contribute to the key.
/// 16 characters keep composite index strings ("a#<attr>#<value...>")
/// selective: attribute names typically fit in the first half, leaving
/// bits for the value prefix.
constexpr size_t kCharsPerKey = 16;
// Every data key is exactly kKeyBits (key.h) wide.
static_assert(kBitsPerRank * kCharsPerKey == kKeyBits,
              "the hash must fill a full-width key");

/// The rank of a byte (identity; kept as a function so the hashing scheme
/// remains swappable and testable).
uint8_t CharRank(unsigned char c);

/// Hashes `s` to its fixed-width trie key (lower bound of all strings that
/// start with `s`).
Key OpHash(std::string_view s);

/// Upper bound of the key region occupied by strings starting with `s`:
/// the ranks of `s` followed by all-one padding. Together with OpHash(s)
/// this delimits the prefix-search range for `s`.
Key OpHashUpper(std::string_view s);

/// The key range covering every string with prefix `p`.
KeyRange PrefixRange(std::string_view p);

/// The key range covering every string in the (inclusive) string interval
/// [lo, hi].
KeyRange StringRange(std::string_view lo, std::string_view hi);

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_OPHASH_H_
