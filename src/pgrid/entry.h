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

/// Encodes a vector of entries (varint count + entries).
void EncodeEntries(const std::vector<Entry>& entries, BufferWriter* w);
Result<std::vector<Entry>> DecodeEntries(BufferReader* r);

/// Streamed variant of EncodeEntries: writes the varint count, then calls
/// `emit`, which must append exactly `count` encoded entries to the writer
/// (typically by running a LocalStore scan with Entry::Encode as the
/// visitor body). Produces bytes identical to EncodeEntries over the same
/// sequence, without materializing an intermediate std::vector<Entry>.
void EncodeEntryStream(uint64_t count, BufferWriter* w,
                       FunctionRef<void(BufferWriter*)> emit);

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_ENTRY_H_
