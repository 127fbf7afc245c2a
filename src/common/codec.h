// Binary serialization for network payloads.
//
// Every protocol message in UniStore is encoded to bytes before it enters
// the (simulated) network. This keeps the wire discipline of a real
// deployment: payload sizes are measurable (the benchmarks report bytes on
// the wire) and decoding failures surface as Status::Corruption rather than
// undefined behaviour.
#ifndef UNISTORE_COMMON_CODEC_H_
#define UNISTORE_COMMON_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unistore {

/// Number of bytes PutVarint emits for `v`.
inline size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends primitive values to a byte buffer. All integers are
/// little-endian fixed width except PutVarint, which is LEB128.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Grows the buffer's capacity by `additional` bytes. Hot encoders call
  /// this once with a size bound so the per-field appends never reallocate.
  void Reserve(size_t additional) { buf_.reserve(buf_.size() + additional); }

  /// Ensures room for `need` more bytes, growing at least geometrically
  /// when a reallocation is needed. Per-field callers (PutString,
  /// Entry::Encode) must use this rather than Reserve: on standard
  /// libraries whose string::reserve allocates exactly the requested
  /// capacity (libc++), an exact per-field reserve would defeat amortized
  /// growth and turn long streamed encodes quadratic.
  void EnsureSpace(size_t need) {
    const size_t size = buf_.size();
    if (buf_.capacity() - size >= need) return;
    buf_.reserve(size + std::max(need, size));
  }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }

  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Unsigned LEB128. Encoded into a scratch array first so the buffer
  /// sees one append instead of up to ten single-byte pushes.
  void PutVarint(uint64_t v) {
    char scratch[10];
    buf_.append(scratch, EncodeVarint(v, scratch));
  }

  /// Replaces the one byte at `pos` with PutVarint(v)'s bytes, moving
  /// the bytes after it when `v` takes more than one: a count written
  /// as a one-byte placeholder before the items it counts, patched once
  /// they are written.
  void PatchVarint(size_t pos, uint64_t v) {
    char scratch[10];
    const size_t n = EncodeVarint(v, scratch);
    if (n > 1) buf_.insert(pos + 1, n - 1, '\0');
    std::memcpy(&buf_[pos], scratch, n);
  }

  /// Length-prefixed byte string. Pre-reserves the encoded size (with
  /// geometric slack) so the prefix and the body land in one grown buffer.
  void PutString(std::string_view s) {
    EnsureSpace(VarintLength(s.size()) + s.size());
    PutVarint(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes, no length prefix (caller must know the size).
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  // Unsigned LEB128 of `v` into `out` (10 bytes of room); returns its
  // length.
  static size_t EncodeVarint(uint64_t v, char* out) {
    size_t n = 0;
    while (v >= 0x80) {
      out[n++] = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out[n++] = static_cast<char>(v);
    return n;
  }

  template <typename T>
  void PutFixed(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(v >> (8 * i));
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Reads primitives back out of a byte buffer; every getter checks bounds
/// and reports Corruption on underflow. Bounds checks compare against
/// remaining() rather than `pos_ + len` so an adversarial varint length
/// close to UINT64_MAX cannot wrap the addition and sneak past the check.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Underflow("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint16_t> GetU16() { return GetFixed<uint16_t>("u16"); }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>("u32"); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>("u64"); }

  Result<int64_t> GetI64() {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    return static_cast<int64_t>(bits);
  }

  Result<double> GetDouble() {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<bool> GetBool() {
    UNISTORE_ASSIGN_OR_RETURN(uint8_t b, GetU8());
    return b != 0;
  }

  /// Canonical unsigned LEB128 only: rejects encodings longer than ten
  /// bytes, ten-byte encodings whose final group overflows 64 bits, and
  /// padded encodings (a zero continuation group, e.g. 0x80 0x00 for 0).
  /// PutVarint never produces any of these; accepting them would let one
  /// logical value arrive as distinct byte strings — and the overflow
  /// form silently drop bits — which matters for checksummed/persisted
  /// records.
  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift > 63) return Status::Corruption("varint too long");
      UNISTORE_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
      if (shift == 63 && (byte & 0x7F) > 1) {
        return Status::Corruption("varint overflows 64 bits");
      }
      if (byte == 0 && shift != 0) {
        return Status::Corruption("non-canonical varint padding");
      }
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  Result<std::string> GetString() {
    UNISTORE_ASSIGN_OR_RETURN(std::string_view s, GetStringView());
    return std::string(s);
  }

  /// Zero-copy variant of GetString: the returned view aliases the input
  /// buffer, which must outlive it. Hot decoders use this to validate or
  /// re-slice fields without a temporary heap string.
  Result<std::string_view> GetStringView() {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
    if (len > remaining()) return Underflow("string body");
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// The next `n` raw bytes (aliasing the input, like GetStringView).
  Result<std::string_view> GetRaw(size_t n) {
    if (n > remaining()) return Underflow("raw bytes");
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> GetFixed(const char* what) {
    if (remaining() < sizeof(T)) return Underflow(what);
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  Status Underflow(const char* what) {
    return Status::Corruption("buffer underflow reading ", what, " at offset ",
                              pos_, " of ", data_.size());
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace unistore

#endif  // UNISTORE_COMMON_CODEC_H_
