// On-disk primitives of the durable storage backend: immutable run files,
// the block cache, and the manifest record codec.
//
// A run file persists one sorted run in the prefix-compressed record
// format of SortedRun's arena, split into independently checksummed
// blocks:
//
//   [u32 magic][u32 format]                          file header
//   repeat: [u32 payload_len][u32 masked_crc][payload]   blocks
//   index payload (BufferWriter):                    block index
//     varint n_blocks
//     n_blocks x { varint frame_offset, varint payload_len,
//                  key first_key (pgrid::EncodeKey) }
//     varint entry_count
//   [u64 index_offset][u32 index_masked_crc][u32 magic]  fixed tail
//
// Records use run_format's codec, the same one SortedRun's arena uses.
// Each block starts a fresh prefix chain (its first record stores the
// full key), so blocks decode independently. Block payloads are
// structurally validated once, on cache miss, so the cursor's per-record
// decode can stay unchecked like the in-memory arena decode.
//
// The manifest (`MANIFEST`) is an append-only stream of framed records
// ([u32 len][u32 masked_crc][payload]) describing the evolution of the
// run set; see manifest::Record. A torn or corrupt record ends replay —
// everything before it is the recovered state (DESIGN.md § Durable
// storage backend).
#ifndef UNISTORE_PGRID_BACKEND_DISK_H_
#define UNISTORE_PGRID_BACKEND_DISK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "pgrid/backend_env.h"
#include "pgrid/entry.h"
#include "pgrid/slot_filter.h"
#include "pgrid/sorted_run.h"

namespace unistore {
namespace pgrid {
namespace storage {

constexpr uint32_t kRunMagic = 0x4E525355u;  // "USRN", little-endian.
constexpr uint32_t kRunFormatVersion = 3;
constexpr size_t kRunHeaderBytes = 8;   // magic + format version.
constexpr size_t kRunTailBytes = 16;    // index offset + crc + magic.
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";

/// File name of run `file_number` within the data directory.
std::string RunFileName(uint64_t file_number);

/// Parses a RunFileName back to its number; false for foreign files.
bool ParseRunFileName(std::string_view name, uint64_t* file_number);

/// \brief Fixed-capacity LRU cache of decoded run-file blocks.
///
/// Values are shared_ptr'd block payloads: cursors pin the blocks they
/// are standing on through the refcount, so eviction never invalidates a
/// live view (capacity is a soft bound while pins are outstanding).
/// Cache keys pack (file number, block index); run file numbers are never
/// reused, so stale entries of deleted runs simply age out.
class BlockCache {
 public:
  using BlockHandle = std::shared_ptr<const std::string>;

  explicit BlockCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Returns the cached block or null, promoting hits to most recent.
  BlockHandle Lookup(uint64_t file_number, uint32_t block_index);

  /// Inserts (replacing any stale entry) and evicts LRU blocks until the
  /// charge fits the capacity again.
  void Insert(uint64_t file_number, uint32_t block_index, BlockHandle block);

  size_t charge() const { return charge_; }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static uint64_t KeyOf(uint64_t file_number, uint32_t block_index) {
    // 40 bits of file number, 24 of block index: far beyond any run set
    // this engine produces (file numbers are monotonic per store).
    return (file_number << 24) | (block_index & 0xFFFFFFu);
  }

  using LruList = std::list<std::pair<uint64_t, BlockHandle>>;
  size_t capacity_;
  size_t charge_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, LruList::iterator> index_;
};

class DiskRunCursor;

/// \brief An immutable run file opened for reading.
///
/// Holds the decoded block index (offsets + first keys) and a slot filter,
/// and reads block payloads through the shared BlockCache. Run files do
/// not store the filter: the writer hands it to the run it adopts, and
/// Open() rebuilds it with one cursor pass. Read or corruption errors wedge
/// the run: status() goes non-OK, cursors over it become invalid, and the
/// owning backend surfaces the error through LocalStore::io_status().
class DiskRun {
 public:
  struct BlockMeta {
    uint64_t offset = 0;       // File offset of the block frame.
    uint32_t payload_len = 0;
    Key first_key;             // Key of the block's first record.
  };

  /// Opens an existing run file, decodes its footer and rebuilds the slot
  /// filter. A block that fails to load leaves the run wedged with a
  /// filter that rules nothing out.
  static Result<std::shared_ptr<DiskRun>> Open(Env* env,
                                               const std::string& path,
                                               uint64_t file_number,
                                               BlockCache* cache);

  /// Adopts a file just written by DiskRunWriter (metadata and filter
  /// already known).
  DiskRun(std::string path, uint64_t file_number, BlockCache* cache,
          std::unique_ptr<RandomAccessFile> file,
          std::vector<BlockMeta> blocks, uint64_t entry_count,
          uint64_t file_bytes, SlotFilter filter);

  uint64_t file_number() const { return file_number_; }
  size_t entry_count() const { return entry_count_; }
  uint64_t file_bytes() const { return file_bytes_; }
  size_t block_count() const { return blocks_.size(); }

  /// Approximate in-memory footprint of the run's metadata (the block
  /// index and the slot filter; block payloads are charged to the
  /// cache).
  size_t metadata_bytes() const;

  /// First read/corruption error observed on this run.
  const Status& status() const { return status_; }

  /// Newest-occurrence probe, same contract as SortedRun::FindSlot: a
  /// slot the filter rules out loads no block. Blocks are searched by
  /// slot: a tie on a block's first key is broken by the block's first
  /// id, so a probe loads O(log blocks) blocks however many blocks its key
  /// spans.
  bool FindSlot(const SlotProbe& probe, uint64_t* version,
                bool* deleted) const;

 private:
  friend class DiskRunCursor;

  /// Slot order of block `index`'s first record against (key, id). Only
  /// a tie on the indexed first key loads the block, for its first id; a
  /// failed load compares greater (status_ holds the error).
  int CompareBlock(uint32_t index, const Key& key, std::string_view id) const;

  /// Cache-through block load: verifies the frame checksum and validates
  /// the record structure on miss. Records the first failure in status_.
  BlockCache::BlockHandle LoadBlock(uint32_t block_index) const;

  std::string path_;
  uint64_t file_number_;
  BlockCache* cache_;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<BlockMeta> blocks_;
  uint64_t entry_count_ = 0;
  uint64_t file_bytes_ = 0;
  SlotFilter filter_;
  mutable Status status_;
};

/// \brief Forward cursor over a DiskRun in slot order.
///
/// Mirrors SortedRun::Cursor: after Seek, view() exposes the current
/// entry as an EntryView whose id aliases the pinned block. Block loads
/// may allocate
/// (cache fills); the in-memory backend's allocation-free scan guarantee
/// does not extend to disk scans.
class DiskRunCursor {
 public:
  DiskRunCursor() = default;

  void Seek(const DiskRun* run, const Key& target);

  /// Loads block `block_index` and stands on its first record;
  /// invalidates the cursor on read failure.
  void JumpToBlock(const DiskRun* run, uint32_t block_index);

  bool valid() const { return valid_; }
  const EntryView& view() const { return view_; }
  void Advance();

 private:
  void DecodeRecord();

  const DiskRun* run_ = nullptr;
  bool valid_ = false;
  EntryView view_;
  BlockCache::BlockHandle block_;  // Pin on the current block.
  uint32_t block_index_ = 0;
  size_t pos_ = 0;       // Payload offset of the current record.
  size_t next_pos_ = 0;
};

/// \brief Streams a sorted entry sequence into a run file.
///
/// Appends block frames as they fill (one Env append per block, so fault
/// injection can kill mid-file), then Finish() writes the index + tail,
/// syncs, and closes. Add also sets the run's slot filter, sized for
/// `expected_entries`. Errors are sticky: Add becomes a no-op after the
/// first failure and Finish returns it.
class DiskRunWriter {
 public:
  /// Creates `path` (truncating any leftover) and writes the header.
  DiskRunWriter(Env* env, std::string path, size_t block_bytes,
                size_t expected_entries);

  void Add(const EntryView& e);  // Slots must arrive in increasing order.

  /// Flushes the last block, writes index + tail, syncs, closes.
  Status Finish();

  // Valid after a successful Finish():
  std::vector<DiskRun::BlockMeta> TakeBlocks() { return std::move(blocks_); }
  SlotFilter TakeFilter() { return std::move(filter_); }
  uint64_t entry_count() const { return count_; }
  uint64_t file_bytes() const { return offset_; }

  /// ApproxEntryBytes sum of the entries added (stats accounting).
  size_t approx_bytes() const { return approx_bytes_; }

 private:
  void FlushBlock();

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  Status status_;
  size_t block_bytes_;
  std::string block_;  // Current block payload under construction.
  Key first_key_;      // First key of the current block.
  Key prev_key_;
  std::vector<DiskRun::BlockMeta> blocks_;
  SlotFilter filter_;
  uint64_t offset_ = 0;  // File offset past everything appended so far.
  uint64_t count_ = 0;
  size_t approx_bytes_ = 0;
};

/// Structural validation of a block payload: every record decodes in
/// bounds, the first record starts a prefix chain (shared == 0), no key
/// exceeds kKeyBits or shares more bytes than it and its predecessor
/// hold, and key padding bits are zero. Run once per cache fill;
/// guarantees the cursor's unchecked decode is memory safe on arbitrary
/// bytes that passed the checksum.
Status ValidateBlockPayload(std::string_view payload);

namespace manifest {

enum RecordType : uint8_t {
  /// Full state: next_file_number + the run set (oldest first). Written
  /// as the first record of every manifest generation; also expresses
  /// Clear/rebuild.
  kSnapshot = 0,
  /// One run appended to the set (flush / bulk load).
  kAddRun = 1,
  /// Runs [first, first + removed) replaced by file_number (compaction).
  kReplace = 2,
};

struct Record {
  uint8_t type = kSnapshot;
  uint64_t next_file_number = 0;   // kSnapshot.
  std::vector<uint64_t> runs;      // kSnapshot: run set, oldest first.
  uint64_t file_number = 0;        // kAddRun / kReplace.
  uint8_t origin = 0;              // kAddRun: RunOrigin of the write.
  uint64_t first = 0;              // kReplace: oldest-first position.
  uint64_t removed = 0;            // kReplace: runs replaced.
};

/// Encodes the payload and wraps it in the [len][crc][payload] frame.
std::string EncodeFramed(const Record& record);

/// Decodes the frame at `*pos`. Returns the record and advances `*pos`,
/// NotFound at clean end-of-stream, Corruption for a torn or damaged
/// frame (replay stops there).
Result<Record> DecodeFramedAt(std::string_view data, size_t* pos);

}  // namespace manifest
}  // namespace storage
}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_BACKEND_DISK_H_
