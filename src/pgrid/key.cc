#include "pgrid/key.h"

#include <algorithm>

#include "common/logging.h"

namespace unistore {
namespace pgrid {
Key Key::FromBits(std::string_view bits) {
  UNISTORE_CHECK(bits.size() <= kKeyBits)
      << "key of " << bits.size() << " bits exceeds " << kKeyBits;
  Key k;
  for (size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    UNISTORE_CHECK(c == '0' || c == '1') << "bad bit char '" << c << "'";
    if (c == '1') k.SetBit(i);
  }
  k.len_ = static_cast<uint32_t>(bits.size());
  return k;
}

Key Key::Prefix(size_t len) const {
  UNISTORE_CHECK(len <= len_);
  Key k = *this;
  k.len_ = static_cast<uint32_t>(len);
  k.ClearFrom(len);
  return k;
}

Key Key::Child(bool one) const {
  UNISTORE_CHECK(len_ < kKeyBits);
  Key k = *this;
  if (one) k.SetBit(len_);
  ++k.len_;
  return k;
}

Key Key::Sibling() const {
  UNISTORE_CHECK(len_ > 0);
  Key k = *this;
  const size_t i = len_ - 1;
  k.words_[i >> 6] ^= uint64_t{1} << (63 - (i & 63));
  return k;
}

Key Key::PadTo(size_t width, bool ones) const {
  UNISTORE_CHECK(width <= kKeyBits);
  if (len_ >= width) return *this;
  Key k = *this;
  if (ones) {
    // Bits [len_, width) of each word, MSB-first.
    for (size_t w = 0; w < 2; ++w) {
      const size_t from = std::max<size_t>(len_, 64 * w);
      const size_t to = std::min<size_t>(width, 64 * w + 64);
      if (from >= to) continue;
      k.words_[w] |= LowOnes(to - from) << (64 * w + 64 - to);
    }
  }
  k.len_ = static_cast<uint32_t>(width);
  return k;
}

Key Key::Successor() const {
  // Drop the trailing ones and flip the last zero: the increment, cut
  // after its last one bit (where the carry stopped).
  const Key k = Increment();
  if (k.empty()) return Key();  // Right-most prefix: no successor.
  const size_t last_one = k.words_[1] != 0
                              ? 127 - __builtin_ctzll(k.words_[1])
                              : 63 - __builtin_ctzll(k.words_[0]);
  return k.Prefix(last_one + 1);
}

bool Key::IsMax() const {
  return len_ > 0 && *this == Key().PadTo(len_, /*ones=*/true);
}

Key Key::Increment() const {
  if (len_ == 0) return Key();
  // Add one at the last bit; the carry only moves toward the MSB, so the
  // padding stays zero.
  const size_t last = len_ - 1;
  const uint64_t one = uint64_t{1} << (63 - (last & 63));
  Key k = *this;
  if (last >= 64) {
    k.words_[1] += one;
    if (k.words_[1] >= one) return k;  // No carry out of word 1.
    if (++k.words_[0] == 0) return Key();  // All ones: overflow.
    return k;
  }
  k.words_[0] += one;
  if (k.words_[0] < one) return Key();  // All ones: overflow.
  return k;
}

Key Key::Decrement() const {
  if (len_ == 0) return Key();
  const size_t last = len_ - 1;
  const uint64_t one = uint64_t{1} << (63 - (last & 63));
  Key k = *this;
  if (last >= 64) {
    const bool borrow = k.words_[1] < one;
    k.words_[1] -= one;
    if (!borrow) return k;
    if (k.words_[0] == 0) return Key();  // All zeros: underflow.
    --k.words_[0];
    return k;
  }
  if (k.words_[0] < one) return Key();  // All zeros: underflow.
  k.words_[0] -= one;
  return k;
}

std::string Key::bits() const {
  std::string s(len_, '0');
  for (size_t i = 0; i < len_; ++i) {
    if (bit(i)) s[i] = '1';
  }
  return s;
}

void EncodeKey(const Key& key, BufferWriter* w) {
  unsigned char buf[Key::kMaxBytes];
  w->EnsureSpace(EncodedKeySize(key));
  w->PutVarint(key.size());
  w->PutRaw(key.Packed(buf));
}

Result<Key> DecodeKey(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t bit_len, r->GetVarint());
  if (bit_len > kKeyBits) {
    return Status::Corruption("key of ", bit_len, " bits exceeds ", kKeyBits);
  }
  UNISTORE_ASSIGN_OR_RETURN(std::string_view body,
                            r->GetRaw(Key::ByteLength(bit_len)));
  const auto* bytes = reinterpret_cast<const unsigned char*>(body.data());
  if (!body.empty() && !Key::PaddingIsZero(bit_len, bytes[body.size() - 1])) {
    return Status::Corruption("key padding bits are not zero");
  }
  return Key::FromBytes(bytes, bit_len);
}

bool KeyRange::IntersectsPrefix(const Key& prefix, size_t key_width) const {
  Key sub_lo = prefix.PadTo(key_width, /*ones=*/false);
  Key sub_hi = prefix.PadTo(key_width, /*ones=*/true);
  return sub_lo.Compare(hi) <= 0 && lo.Compare(sub_hi) <= 0;
}

KeyRange KeyRange::ClampToPrefix(const Key& prefix, size_t key_width) const {
  Key sub_lo = prefix.PadTo(key_width, /*ones=*/false);
  Key sub_hi = prefix.PadTo(key_width, /*ones=*/true);
  KeyRange out;
  out.lo = (lo.Compare(sub_lo) >= 0) ? lo : sub_lo;
  out.hi = (hi.Compare(sub_hi) <= 0) ? hi : sub_hi;
  return out;
}

namespace {

void SplitRangeInto(const KeyRange& range, size_t parts, size_t key_width,
                    std::vector<KeyRange>* out) {
  const size_t diverge = range.lo.CommonPrefixLength(range.hi);
  if (parts <= 1 || diverge >= key_width ||
      range.lo.Compare(range.hi) >= 0) {
    out->push_back(range);
    return;
  }
  // lo has '0' and hi has '1' at the divergence bit (lo < hi), so the two
  // halves below are disjoint, consecutive and cover [lo, hi] exactly.
  const Key prefix = range.lo.Prefix(diverge);
  KeyRange left{range.lo, prefix.Child(false).PadTo(key_width, true)};
  KeyRange right{prefix.Child(true).PadTo(key_width, false), range.hi};
  SplitRangeInto(left, (parts + 1) / 2, key_width, out);
  SplitRangeInto(right, parts / 2, key_width, out);
}

}  // namespace

std::vector<KeyRange> SplitRange(const KeyRange& range, size_t max_parts,
                                 size_t key_width) {
  std::vector<KeyRange> out;
  SplitRangeInto(range, std::max<size_t>(1, max_parts), key_width, &out);
  return out;
}

}  // namespace pgrid
}  // namespace unistore
