// Storage entries: what the overlay stores under a key.
#ifndef UNISTORE_PGRID_ENTRY_H_
#define UNISTORE_PGRID_ENTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/function_ref.h"
#include "common/result.h"
#include "pgrid/key.h"

namespace unistore {
namespace pgrid {

/// \brief A versioned value stored in the DHT.
///
/// `id` identifies the logical datum under its key and is the datum itself:
/// the triple layer stores each triple as the id of its entries, so
/// re-inserting the same triple with a higher version is an update, per
/// the loose-consistency update scheme of [Datta ICDCS'03]. `deleted`
/// marks a tombstone, which replicas keep so that anti-entropy does not
/// resurrect removed data.
struct Entry {
  Key key;
  std::string id;
  uint64_t version = 1;
  bool deleted = false;

  void Encode(BufferWriter* w) const;
  static Result<Entry> Decode(BufferReader* r);

  /// Bytes Encode appends for this entry (exact).
  size_t EncodedSize() const;

  bool operator==(const Entry& other) const {
    return key == other.key && id == other.id && version == other.version &&
           deleted == other.deleted;
  }
};

/// \brief A borrowed, non-owning view of one stored entry.
///
/// The zero-copy scan path hands visitors EntryViews instead of `const
/// Entry&`: prefix-compressed runs do not hold materialized Entry objects,
/// so the view holds its (fixed-width) key by value and its id aliases
/// either an Entry living in the memtable or bytes of a run's arena (or
/// disk block). A view is valid only for the duration of the visitor call
/// (the cursor reuses its buffers on advance) — copy with ToEntry() to
/// retain.
struct EntryView {
  Key key;
  std::string_view id;
  uint64_t version = 1;
  bool deleted = false;

  EntryView() = default;
  /// Wraps an owning Entry.
  EntryView(const Entry& e)  // NOLINT(google-explicit-constructor)
      : key(e.key), id(e.id), version(e.version), deleted(e.deleted) {}

  /// Byte-identical to Entry::Encode of the materialized entry.
  void Encode(BufferWriter* w) const;
  size_t EncodedSize() const;

  /// Materializes an owning Entry (allocates; cold paths only).
  Entry ToEntry() const;
};

/// \brief Writes a list of entries in the front-coded wire form.
///
/// The list is a varint `count`, then the entries in list order (a
/// message may put its own fields between them). Each entry sends only
/// what the receiver cannot rebuild from the entry before it (DESIGN.md
/// §3):
///   varint header     shared_key_bytes << 1 | (bit length == kKeyBits)
///   varint bit_len    only for a key that is not full-width
///   the packed key bytes past the shared ones
///   varint shared_id  id bytes shared with the previous entry's id
///   varint rest_len, the id bytes past the shared ones
///   varint version
///   u8 deleted
/// `shared_key_bytes` is CommonPrefixLength(previous key) / 8, as in
/// run_format::AppendRecord; the first entry shares nothing. A keyless
/// list (a lookup answer, whose key the requester named) omits the first
/// three fields. Zero-copy: Add takes a view and copies only the id, which
/// the next entry is coded against.
///
/// One pass: the count goes out as a one-byte placeholder that Write
/// patches once `fill` has added the entries, widening it in place for
/// 128 or more. So a serving scan encodes as it visits, with no counting
/// pass, and the bytes are those of a list whose count came first. Only
/// Write makes a writer, so no list is left unpatched.
class EntryListWriter {
 public:
  using Fill = FunctionRef<void(EntryListWriter*)>;

  /// Appends one list to `w`; `fill` adds its entries.
  static void Write(BufferWriter* w, bool keyless, Fill fill);

  void Add(const EntryView& e);

 private:
  EntryListWriter(BufferWriter* w, bool keyless);

  BufferWriter* w_;
  bool keyless_;
  size_t count_at_;  // Offset of the count placeholder in `w_`.
  uint64_t count_ = 0;
  Key prev_key_;
  std::string prev_id_;  // A view's id lives only as long as its visit.
};

/// Decodes one entry of an EntryListWriter list. `prev` is the list's
/// previous entry as decoded (nullptr for the first); a keyless entry
/// comes back with an empty key. Corruption for sharing more than `prev`
/// holds, a key over kKeyBits bits, nonzero key padding or a short read.
Result<Entry> DecodeListedEntry(BufferReader* r, const Entry* prev,
                                bool keyless = false);

/// One EntryListWriter list of `entries`, and its decoder.
void EncodeEntries(const std::vector<Entry>& entries, BufferWriter* w,
                   bool keyless = false);
Result<std::vector<Entry>> DecodeEntries(BufferReader* r,
                                         bool keyless = false);

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_ENTRY_H_
