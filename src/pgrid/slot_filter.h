// Per-run slot filters: a blocked Bloom filter over the (key, id) slots of
// one immutable run, so that a point probe skips every run that cannot
// hold its slot (DESIGN.md §6). Filters only rule slots out; scans never
// consult them.
#ifndef UNISTORE_PGRID_SLOT_FILTER_H_
#define UNISTORE_PGRID_SLOT_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "pgrid/key.h"

namespace unistore {
namespace pgrid {

namespace slot_filter_internal {

constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;  // 2^64 / golden ratio.

// One chaining step: a xorshift and an odd multiply, both bijections, so
// for a fixed state distinct words give distinct states.
inline uint64_t Step(uint64_t h, uint64_t word) {
  return (h ^ (h >> 29) ^ word) * kMul;
}

// MurmurHash3's 64-bit finalizer: spreads every bit over the whole word.
inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

// The last 1 to 7 bytes at `p` as one word. Two overlapping 4-byte loads
// (or three single bytes) cover every byte, so for a fixed length distinct
// tails give distinct words, without a variable-length copy.
inline uint64_t TailWord(const char* p, size_t n) {
  if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return lo | (uint64_t{hi} << 32);
  }
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return u[0] | (uint64_t{u[n / 2]} << 8) | (uint64_t{u[n - 1]} << 16);
}

}  // namespace slot_filter_internal

/// \brief 64-bit hash of the slot (key, id).
///
/// Chains the key's two words, its bit length and the id's length, then
/// the id bytes eight at a time, and finishes with MurmurHash3's
/// finalizer. Unseeded and independent of the host's standard library, so
/// a filter rebuilt when a run file is reopened matches the one built
/// when the run was written.
inline uint64_t SlotHash(const Key& key, std::string_view id) {
  using slot_filter_internal::Step;
  uint64_t h = Step(
      key.word(0), (static_cast<uint64_t>(key.size()) << 32) | id.size());
  h = Step(h, key.word(1));
  size_t i = 0;
  for (; i + 8 <= id.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, id.data() + i, 8);
    h = Step(h, word);
  }
  if (i < id.size()) {
    h = Step(h, slot_filter_internal::TailWord(id.data() + i, id.size() - i));
  }
  return slot_filter_internal::Mix(h);
}

/// A point probe: the slot and its hash, computed once per probe and
/// shared by every run the probe asks.
struct SlotProbe {
  SlotProbe(const Key& k, std::string_view i)
      : key(k), id(i), hash(SlotHash(k, i)) {}

  const Key& key;
  std::string_view id;
  uint64_t hash;
};

/// \brief A blocked Bloom filter over slot hashes.
///
/// The hash's high half picks one 512-bit block (a cache line); its low
/// half sets kProbes bits inside that block. At kBitsPerEntry bits per
/// entry this answers about 1% of absent slots with "maybe".
class SlotFilter {
 public:
  static constexpr size_t kBitsPerEntry = 10;
  static constexpr size_t kBlockBits = 512;
  static constexpr int kProbes = 6;

  /// Holds no blocks and matches every slot (a run whose filter could not
  /// be built).
  SlotFilter() = default;

  /// Sized for `expected_entries` slots; at least one block.
  explicit SlotFilter(size_t expected_entries)
      : blocks_(std::max<size_t>(
            1, (expected_entries * kBitsPerEntry + kBlockBits - 1) /
                   kBlockBits)) {}

  /// Requires a sized filter.
  void Add(uint64_t hash) {
    uint64_t* words = blocks_[BlockIndex(hash)].words;
    uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < kProbes; ++i, h *= 0x9E3779B9u) {
      const uint32_t bit = h >> 23;  // The top 9 bits: 0..511.
      words[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }

  /// False only when no slot with this hash was added.
  bool MayContain(uint64_t hash) const {
    if (blocks_.empty()) return true;
    const uint64_t* words = blocks_[BlockIndex(hash)].words;
    uint32_t h = static_cast<uint32_t>(hash);
    for (int i = 0; i < kProbes; ++i, h *= 0x9E3779B9u) {
      const uint32_t bit = h >> 23;
      if ((words[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
    }
    return true;
  }

  /// Bytes of the bit array.
  size_t bytes() const { return blocks_.size() * sizeof(Block); }

 private:
  struct alignas(64) Block {
    uint64_t words[kBlockBits / 64] = {};
  };

  // Multiply-shift maps the hash's high half onto [0, blocks).
  size_t BlockIndex(uint64_t hash) const {
    return static_cast<size_t>(((hash >> 32) * blocks_.size()) >> 32);
  }

  std::vector<Block> blocks_;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_SLOT_FILTER_H_
