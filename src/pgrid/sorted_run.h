// Immutable sorted runs of entries: the unit of storage below the
// memtable, shared by every storage backend (in-memory run vectors, and
// the record format the disk backend persists inside its blocks).
#ifndef UNISTORE_PGRID_SORTED_RUN_H_
#define UNISTORE_PGRID_SORTED_RUN_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "pgrid/slot_filter.h"

namespace unistore {
namespace pgrid {

/// Approximate resident footprint of one entry (object + id bytes; the
/// key is a fixed-width value inside the object; ignores allocator
/// slack). Shared by run accounting and the write-amplification counters
/// so the two are comparable.
inline size_t ApproxEntryBytes(const Entry& e) {
  return sizeof(Entry) + e.id.size();
}

inline size_t ApproxEntryBytes(const EntryView& e) {
  return sizeof(Entry) + e.id.size();
}

namespace run_format {

/// Bytes of the longest LEB128 varint (a uint64_t).
constexpr size_t kMaxVarintBytes = 10;

/// Raw LEB128 write at `p`, identical encoding to BufferWriter::PutVarint;
/// returns the byte past it. The run formats use these unchecked helpers
/// on engine-built byte arenas; bytes that cross a trust boundary (disk
/// blocks, manifest records) are validated once on load instead of per
/// read.
inline char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

inline uint64_t ReadVarint(std::string_view s, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = static_cast<uint8_t>(s[*pos]);
    ++*pos;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

/// \brief Slot order (<0 / 0 / >0) of the chain-start record at `pos` of
/// `bytes` against (key, id).
///
/// A chain start (shared == 0) stores its key bytes and id raw, so both
/// are compared in place and nothing else of the record is decoded.
inline int CompareChainStart(std::string_view bytes, size_t pos,
                             const Key& key, std::string_view id) {
  ReadVarint(bytes, &pos);  // shared == 0.
  const uint64_t bit_len = ReadVarint(bytes, &pos);
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const int c = Key::FromBytes(data + pos, bit_len).Compare(key);
  if (c != 0) return c;
  pos += Key::ByteLength(bit_len);
  const uint64_t id_len = ReadVarint(bytes, &pos);
  return std::string_view(bytes.data() + pos, id_len).compare(id);
}

/// \brief Appends one entry record to `out`.
///
/// The record format shared by in-memory run arenas and run-file blocks
/// (run file format version 3), records back to back:
///   varint shared           key bytes shared with the previous record
///                           (0 at chain starts)
///   varint key_bit_len      <= kKeyBits
///   Key::ByteLength(key_bit_len) - shared bytes of the packed key
///   varint id_len, id bytes
///   varint version
///   u8 flags               (bit 0: deleted)
/// `prev_key` is the previous record's key, or the empty key at a chain
/// start (a restart point or a block's first record), which shares
/// nothing.
inline void AppendRecord(std::string* out, const Key& prev_key,
                         const EntryView& e) {
  unsigned char buf[Key::kMaxBytes];
  const std::string_view key = e.key.Packed(buf);
  const size_t shared = e.key.CommonPrefixLength(prev_key) / 8;
  // The fields before and after the id are built on the stack: three
  // appends per record instead of one per field.
  char head[2 * kMaxVarintBytes + Key::kMaxBytes + kMaxVarintBytes];
  char* p = PutVarint(head, shared);
  p = PutVarint(p, e.key.size());
  std::memcpy(p, key.data() + shared, key.size() - shared);
  p = PutVarint(p + key.size() - shared, e.id.size());
  out->append(head, static_cast<size_t>(p - head));
  out->append(e.id.data(), e.id.size());
  char tail[kMaxVarintBytes + 1];
  p = PutVarint(tail, e.version);
  *p++ = e.deleted ? '\1' : '\0';
  out->append(tail, static_cast<size_t>(p - tail));
}

/// Bytes AppendRecord(out, prev_key, e) appends (exact).
inline size_t RecordSize(const Key& prev_key, const EntryView& e) {
  const size_t shared = e.key.CommonPrefixLength(prev_key) / 8;
  return VarintLength(shared) + VarintLength(e.key.size()) +
         Key::ByteLength(e.key.size()) - shared + VarintLength(e.id.size()) +
         e.id.size() + VarintLength(e.version) + 1;
}

/// \brief Decodes the record at `*pos` of `bytes` into `view` and moves
/// `*pos` past it.
///
/// The id aliases `bytes`. A record with shared > 0 takes its first key
/// bytes from the previous record's key, which `view` must still hold —
/// so records of a chain decode in order. Never allocates.
inline void DecodeRecord(std::string_view bytes, size_t* pos,
                         EntryView* view) {
  // A local offset stays in a register across the key splice.
  size_t at = *pos;
  const char* data = bytes.data();
  const uint64_t shared = ReadVarint(bytes, &at);
  const uint64_t bit_len = ReadVarint(bytes, &at);
  const size_t suffix = Key::ByteLength(bit_len) - shared;
  const auto* suffix_bytes = reinterpret_cast<const unsigned char*>(data + at);
  if (shared == 0) {
    view->key = Key::FromBytes(suffix_bytes, bit_len);
  } else {
    unsigned char key_bytes[Key::kMaxBytes];
    view->key.ToBytes(key_bytes);
    std::memcpy(key_bytes + shared, suffix_bytes, suffix);
    view->key = Key::FromBytes(key_bytes, bit_len);
  }
  at += suffix;
  const uint64_t id_len = ReadVarint(bytes, &at);
  view->id = std::string_view(data + at, id_len);
  at += id_len;
  view->version = ReadVarint(bytes, &at);
  view->deleted = data[at++] != '\0';
  *pos = at;
}

}  // namespace run_format

/// \brief An immutable sorted run of entries, ordered by (key, id) with
/// one occurrence per slot.
///
/// One byte arena holds the entries in run_format's record layout: packed
/// key bytes are shared-prefix-truncated against the previous entry, with
/// restart points (full key) every `restart_interval` entries. Ids are
/// stored raw, so cursor views alias the arena; keys are fixed-width
/// values rebuilt inside the view, never on the heap. A slot filter built
/// with the arena lets point probes skip the run without searching it.
class SortedRun {
 public:
  /// Entries per restart block of the runs a LocalStore builds.
  static constexpr size_t kRestartInterval = 16;

  SortedRun() = default;

  /// Builds a run from entries already sorted by slot (key, id),
  /// deduplicated.
  static SortedRun Build(std::vector<Entry> entries,
                         size_t restart_interval = kRestartInterval);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Approximate resident footprint in bytes (entry data + index
  /// structures + slot filter; excludes malloc overhead).
  size_t resident_bytes() const { return resident_bytes_; }

  /// Newest-occurrence probe: fills version/deleted of the slot if the
  /// run contains it. A slot the filter rules out returns false at once;
  /// otherwise restarts are searched by slot, so the probe decodes at
  /// most one restart block however many entries share the key. No heap
  /// allocation.
  bool FindSlot(const SlotProbe& probe, uint64_t* version,
                bool* deleted) const;

  /// The filter over this run's slots (tests).
  const SlotFilter& filter() const { return filter_; }

  /// \brief A forward cursor over the run in slot order.
  ///
  /// After Seek(), while valid(), view() exposes the current entry; the
  /// view's id aliases the arena, and Advance() overwrites the view.
  /// Cursors never allocate.
  class Cursor {
   public:
    Cursor() = default;

    /// Positions at the first entry with key >= `target`.
    void Seek(const SortedRun* run, const Key& target);

    /// Repositions at an arbitrary restart record (FindSlot's block
    /// jump).
    void JumpToRestart(const SortedRun* run, size_t restart_index);

    bool valid() const { return valid_; }
    const EntryView& view() const { return view_; }
    /// Arena offset of the current record.
    size_t arena_offset() const { return offset_; }
    void Advance();

   private:
    void Decode();

    const SortedRun* run_ = nullptr;
    bool valid_ = false;
    EntryView view_;
    size_t offset_ = 0;     // Arena offset of the current record.
    size_t next_offset_ = 0;
  };

  class Builder;  // Streaming run construction (defined below).

 private:
  /// Full key of restart record `index`.
  Key RestartKey(size_t index) const;

  /// Slot order of restart record `index` against (key, id).
  int CompareRestart(size_t index, const Key& key,
                     std::string_view id) const {
    return run_format::CompareChainStart(arena_, restarts_[index], key, id);
  }

  size_t count_ = 0;
  size_t resident_bytes_ = 0;
  std::string arena_;               // run_format records, back to back.
  std::vector<uint32_t> restarts_;  // Arena offsets of restart records.
  uint32_t restart_interval_ = kRestartInterval;
  SlotFilter filter_;  // Over every slot of the arena.
};

/// \brief Streaming run construction from entry views in slot order.
///
/// Compactions merge runs through cursors; feeding the winning views
/// straight into a Builder writes the merged run's arena directly — no
/// intermediate Entry materialization (3 heap strings per entry) on the
/// merge path. The slot filter is sized from `expected_entries` and set
/// as entries arrive.
class SortedRun::Builder {
 public:
  Builder(size_t expected_entries, size_t expected_bytes,
          size_t restart_interval = kRestartInterval);

  void Add(const EntryView& e);  // Slots must arrive in increasing order.
  SortedRun Finish();

  /// Approximate resident bytes of the entries added so far (the
  /// write-amplification accounting unit, same as ApproxEntryBytes).
  size_t approx_bytes() const { return approx_bytes_; }

 private:
  SortedRun run_;
  Key prev_key_;
  size_t index_ = 0;
  size_t approx_bytes_ = 0;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_SORTED_RUN_H_
