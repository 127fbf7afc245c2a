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

namespace unistore {
namespace pgrid {

/// Approximate resident footprint of one entry (object + string bytes;
/// ignores allocator slack). Shared by run accounting and the
/// write-amplification counters so the two are comparable.
inline size_t ApproxEntryBytes(const Entry& e) {
  return sizeof(Entry) + e.key.bits().size() + e.id.size();
}

inline size_t ApproxEntryBytes(const EntryView& e) {
  return sizeof(Entry) + e.key_bits.size() + e.id.size();
}

namespace run_format {

/// Raw LEB128 append, identical encoding to BufferWriter::PutVarint. The
/// run formats use these unchecked helpers on engine-built byte arenas;
/// bytes that cross a trust boundary (disk blocks, manifest records) are
/// validated once on load instead of per read.
inline void AppendVarint(std::string* s, uint64_t v) {
  char scratch[10];
  size_t n = 0;
  while (v >= 0x80) {
    scratch[n++] = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  scratch[n++] = static_cast<char>(v);
  s->append(scratch, n);
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

/// Longest key bits a record may share with its predecessor: the size of
/// a cursor's fixed key-reassembly buffer. Data keys are kKeyBits = 128
/// wide; a longer key is written with shared == 0 and read in place.
constexpr size_t kMaxCompressedKeyBits = 192;

/// \brief Slot order (<0 / 0 / >0) of the chain-start record at `pos` of
/// `bytes` against (key_bits, id).
///
/// A chain start (shared == 0) stores its key and id raw, so both are
/// compared in place and nothing else of the record is decoded.
inline int CompareChainStart(std::string_view bytes, size_t pos,
                             std::string_view key_bits, std::string_view id) {
  ReadVarint(bytes, &pos);  // shared == 0.
  const uint64_t key_len = ReadVarint(bytes, &pos);
  const std::string_view key(bytes.data() + pos, key_len);
  const int c = key.compare(key_bits);
  if (c != 0) return c;
  pos += key_len;
  const uint64_t id_len = ReadVarint(bytes, &pos);
  return std::string_view(bytes.data() + pos, id_len).compare(id);
}

/// \brief Appends one entry record to `out`.
///
/// The record format shared by in-memory run arenas and run-file blocks,
/// records back to back:
///   varint shared_key_len   (0 at chain starts and for overlong keys)
///   varint key_suffix_len, key suffix bytes
///   varint id_len, id bytes
///   varint version
///   u8 flags               (bit 0: deleted)
/// `prev_key` is the previous record's full key bits, or empty at a chain
/// start (a restart point or a block's first record). A key longer than
/// kMaxCompressedKeyBits shares nothing, so DecodeRecord reads it in
/// place instead of reassembling it.
inline void AppendRecord(std::string* out, std::string_view prev_key,
                         const EntryView& e) {
  size_t shared = 0;
  if (e.key_bits.size() <= kMaxCompressedKeyBits) {
    const size_t limit = std::min(prev_key.size(), e.key_bits.size());
    while (shared < limit && prev_key[shared] == e.key_bits[shared]) {
      ++shared;
    }
  }
  AppendVarint(out, shared);
  AppendVarint(out, e.key_bits.size() - shared);
  out->append(e.key_bits.data() + shared, e.key_bits.size() - shared);
  AppendVarint(out, e.id.size());
  out->append(e.id.data(), e.id.size());
  AppendVarint(out, e.version);
  out->push_back(e.deleted ? '\1' : '\0');
}

/// \brief Decodes the record at `*pos` of `bytes` into `view` and moves
/// `*pos` past it.
///
/// The id aliases `bytes`. A record with shared == 0 aliases its
/// key in `bytes` too; any other record reassembles its key in `key_buf`
/// (kMaxCompressedKeyBits bytes) from the previous record's key, which
/// `view` must still hold — so records of a chain decode in order. Never
/// allocates.
inline void DecodeRecord(std::string_view bytes, size_t* pos, char* key_buf,
                         EntryView* view) {
  // A local offset stays in a register across the memcpys into `key_buf`.
  size_t at = *pos;
  const char* data = bytes.data();
  const uint64_t shared = ReadVarint(bytes, &at);
  const uint64_t suffix = ReadVarint(bytes, &at);
  if (shared == 0) {
    view->key_bits = std::string_view(data + at, suffix);
  } else {
    if (view->key_bits.data() != key_buf) {
      // The previous key aliased `bytes`: pull its shared prefix into the
      // reassembly buffer once.
      std::memcpy(key_buf, view->key_bits.data(), shared);
    }
    std::memcpy(key_buf + shared, data + at, suffix);
    view->key_bits = std::string_view(key_buf, shared + suffix);
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

/// \brief An immutable sorted run of entries, ordered by (key bits, id)
/// with one occurrence per slot.
///
/// One byte arena holds the entries in run_format's record layout: key
/// bits are shared-prefix-truncated against the previous entry, with
/// restart points (full key) every `restart_interval` entries. Ids are
/// stored raw, so cursor views alias the arena; only a
/// prefix-shared key is reassembled — into the cursor's fixed buffer,
/// never the heap.
class SortedRun {
 public:
  SortedRun() = default;

  /// Builds a run from entries already sorted by slot (key bits, id),
  /// deduplicated.
  static SortedRun Build(std::vector<Entry> entries, size_t restart_interval);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Approximate resident footprint in bytes (entry data + index
  /// structures; excludes malloc overhead).
  size_t resident_bytes() const { return resident_bytes_; }

  /// Newest-occurrence probe: fills version/deleted of the slot if the
  /// run contains it. Restarts are searched by slot, so the probe decodes
  /// at most one restart block however many entries share the key. No
  /// heap allocation.
  bool FindSlot(std::string_view key_bits, std::string_view id,
                uint64_t* version, bool* deleted) const;

  /// \brief A forward cursor over the run in slot order.
  ///
  /// After Seek(), while valid(), view() exposes the current entry; the
  /// view's key aliases the arena or the cursor's own buffer and is
  /// invalidated by Advance(). Cursors never allocate.
  class Cursor {
   public:
    Cursor() = default;

    /// Positions at the first entry with key bits >= `lo_bits`.
    void Seek(const SortedRun* run, std::string_view lo_bits);

    /// Repositions at an arbitrary restart record (the Prober's block
    /// jumps).
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
    char key_buf_[run_format::kMaxCompressedKeyBits];
  };

  /// \brief Forward-only slot prober for sorted probe sequences.
  ///
  /// BulkLoad probes a sorted batch against every run; because the probe
  /// slots are non-decreasing, the prober remembers its position and
  /// gallops forward over the restarts by slot instead of re-running a
  /// full binary search per entry. A probe costs O(log gap) restart
  /// comparisons, where gap counts the restart blocks skipped, plus the
  /// decode of at most one block — also inside a key shared by many ids.
  class Prober {
   public:
    explicit Prober(const SortedRun* run);

    /// Like FindSlot, but `(key_bits, id)` must be >= every slot probed
    /// before on this prober.
    bool FindForward(std::string_view key_bits, std::string_view id,
                     uint64_t* version, bool* deleted);

   private:
    const SortedRun* run_ = nullptr;
    size_t restart_ = 0;  // Restart block of `cursor_`.
    Cursor cursor_;       // Decode position.
  };

  class Builder;  // Streaming run construction (defined below).

 private:
  /// Full key bits of restart record `index` (aliases the arena).
  std::string_view RestartKey(size_t index) const;

  /// Slot order of restart record `index` against (key_bits, id).
  int CompareRestart(size_t index, std::string_view key_bits,
                     std::string_view id) const {
    return run_format::CompareChainStart(arena_, restarts_[index], key_bits,
                                         id);
  }

  size_t count_ = 0;
  size_t resident_bytes_ = 0;
  std::string arena_;               // run_format records, back to back.
  std::vector<uint32_t> restarts_;  // Arena offsets of restart records.
  uint32_t restart_interval_ = 16;
};

/// \brief Streaming run construction from entry views in slot order.
///
/// Compactions merge runs through cursors; feeding the winning views
/// straight into a Builder writes the merged run's arena directly — no
/// intermediate Entry materialization (3 heap strings per entry) on the
/// merge path.
class SortedRun::Builder {
 public:
  Builder(size_t restart_interval, size_t expected_entries,
          size_t expected_bytes);

  void Add(const EntryView& e);  // Slots must arrive in increasing order.
  SortedRun Finish();

  /// Approximate resident bytes of the entries added so far (the
  /// write-amplification accounting unit, same as ApproxEntryBytes).
  size_t approx_bytes() const { return approx_bytes_; }

 private:
  SortedRun run_;
  std::string prev_key_;
  size_t index_ = 0;
  size_t approx_bytes_ = 0;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_SORTED_RUN_H_
