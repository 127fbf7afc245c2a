// The pluggable run-storage engine beneath LocalStore.
//
// LocalStore keeps the LSM policy (memtable, flush thresholds, tiered
// compaction decisions, scan merge, statistics); a StorageBackend owns
// the immutable run set and performs the run-level I/O those decisions
// trigger. Two implementations:
//
// - MemoryBackend: the original in-process engine (SortedRun vector).
//   Semantics are unchanged from the pre-backend LocalStore; it is the
//   determinism oracle the disk backend is differential-tested against.
// - DiskBackend: immutable run files + append-only manifest + block
//   cache (backend_disk.h). A flush/bulk-load/compaction is acknowledged
//   only after the run file AND its manifest record are synced, so a
//   reopened store recovers exactly the acknowledged run set.
//
// Interface granularity: every virtual call is per run or per operation
// (append a run, merge a group, seek a cursor), never per entry — the
// in-memory scan hot loop stays devirtualized through the RunCursor
// tagged union below.
#ifndef UNISTORE_PGRID_STORAGE_BACKEND_H_
#define UNISTORE_PGRID_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "pgrid/backend_disk.h"
#include "pgrid/entry.h"
#include "pgrid/run_summary.h"
#include "pgrid/sorted_run.h"

namespace unistore {
namespace pgrid {

/// Why a run is being written (manifest/telemetry annotation).
enum class RunOrigin : uint8_t {
  kFlush = 0,
  kBulkLoad = 1,
  kCompaction = 2,
  kRebuild = 3,
};

/// What a compaction rewrote (LocalStore's write-amplification stats).
struct MergeStats {
  size_t entries = 0;
  size_t bytes = 0;  // ApproxEntryBytes units.
};

/// \brief Cursor over one run of either backend.
///
/// A closed tagged union instead of a virtual interface: scans advance
/// cursors once per entry, and the union keeps the in-memory path a
/// predictable branch + inlined call (the allocation-free scans that
/// LocalStoreEngineTest.VisitorReadPathDoesNotAllocate checks depend on
/// this). Construction never allocates.
class RunCursor {
 public:
  RunCursor() = default;

  /// Selects the variant (resetting the cursor) for a backend's Seek.
  SortedRun::Cursor& mem() {
    is_disk_ = false;
    return mem_;
  }
  storage::DiskRunCursor& disk() {
    is_disk_ = true;
    return disk_;
  }

  bool valid() const { return is_disk_ ? disk_.valid() : mem_.valid(); }
  const EntryView& view() const {
    return is_disk_ ? disk_.view() : mem_.view();
  }
  void Advance() {
    if (is_disk_) {
      disk_.Advance();
    } else {
      mem_.Advance();
    }
  }

 private:
  bool is_disk_ = false;
  SortedRun::Cursor mem_;
  storage::DiskRunCursor disk_;
};

/// \brief Owner of the immutable run set (see file comment).
///
/// Run indices are oldest first (index 0 = oldest), matching recency
/// order: on a slot tie a higher-indexed run holds the newer occurrence.
/// Mutating calls return Status; on failure LocalStore wedges (stops
/// mutating, surfaces io_status()) rather than aborting, so injected
/// fault tests can observe the store's reaction.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual size_t run_count() const = 0;
  virtual size_t run_entries(size_t index) const = 0;  // Oldest-first.
  virtual size_t resident_bytes() const = 0;

  /// First deferred read/corruption error (disk scans cannot return
  /// Status through the visitor API; they record it here).
  virtual Status status() const { return Status::OK(); }

  /// Appends `entries` (sorted by slot, deduplicated, non-empty) as the
  /// newest run. Durable backends return only once the run is synced AND
  /// recorded in the manifest — the flush acknowledgement point.
  virtual Status AppendRun(std::vector<Entry> entries, RunOrigin origin) = 0;

  /// Merges runs [first, first + n) into one run placed at `first`,
  /// preserving recency order (within the group the newest run wins slot
  /// ties). Fills `*stats` with the rewrite volume.
  virtual Status MergeRuns(size_t first, size_t n, MergeStats* stats) = 0;

  /// Replaces the entire run set with one run built from `entries`
  /// (sorted, deduplicated; empty clears the store).
  virtual Status ResetTo(std::vector<Entry> entries) = 0;

  /// Newest-occurrence probe across all runs (newest first); each run's
  /// slot filter rules most absent slots out without a search.
  virtual bool FindSlot(const SlotProbe& probe, uint64_t* version,
                        bool* deleted) const = 0;

  /// Positions `cursor` on run `newest_first_index` (0 = newest) at the
  /// first entry with key >= `lo`.
  virtual void SeekCursor(size_t newest_first_index, const Key& lo,
                          RunCursor* cursor) const = 0;

  /// Summary (id, entry count, content checksum) of the run at oldest-first
  /// `index` — the unit of the anti-entropy manifest exchange. Checksums
  /// are computed lazily on first request and cached; run ids are stable
  /// for the lifetime of the run (disk runs reuse their file number).
  virtual RunSummary RunSummaryAt(size_t index) const = 0;

  /// Resolves a run id back to its current oldest-first index; returns
  /// false if the run no longer exists (compacted or reset away).
  virtual bool FindRunIndexById(uint64_t run_id, size_t* index) const = 0;
};

/// The original in-process engine: a vector of SortedRuns.
class MemoryBackend : public StorageBackend {
 public:
  MemoryBackend() = default;

  size_t run_count() const override { return runs_.size(); }
  size_t run_entries(size_t index) const override {
    return runs_[index].size();
  }
  size_t resident_bytes() const override;
  Status AppendRun(std::vector<Entry> entries, RunOrigin origin) override;
  Status MergeRuns(size_t first, size_t n, MergeStats* stats) override;
  Status ResetTo(std::vector<Entry> entries) override;
  bool FindSlot(const SlotProbe& probe, uint64_t* version,
                bool* deleted) const override;
  void SeekCursor(size_t newest_first_index, const Key& lo,
                  RunCursor* cursor) const override;
  RunSummary RunSummaryAt(size_t index) const override;
  bool FindRunIndexById(uint64_t run_id, size_t* index) const override;

  /// Test hook: the run at oldest-first `index`.
  const SortedRun& run(size_t index) const { return runs_[index]; }

 private:
  /// Repair identity riding alongside runs_[i]: a monotonically assigned
  /// id plus a lazily computed content CRC (caching keeps summary calls
  /// off the write path's critical cost).
  struct RunMeta {
    uint64_t id = 0;
    mutable bool has_crc = false;
    mutable uint32_t crc = 0;
  };

  std::vector<SortedRun> runs_;  // runs_[0] oldest … back() newest.
  std::vector<RunMeta> meta_;    // Parallel to runs_.
  uint64_t next_run_id_ = 1;
};

/// Configuration of a DiskBackend (derived from LocalStoreOptions).
struct DiskBackendOptions {
  std::string data_dir;
  storage::Env* env = nullptr;  ///< Null selects Env::Default().
  size_t block_bytes = 4096;    ///< Target block payload size.
  size_t block_cache_bytes = 4 << 20;
};

/// \brief Durable engine: run files + manifest in `data_dir`.
///
/// Open() recovers the acknowledged run set: manifest records are
/// replayed up to the first torn/corrupt record, referenced run files
/// are opened (their footers re-validated), orphaned run files and
/// leftover manifest rewrites are deleted, and a fresh single-snapshot
/// manifest is written via MANIFEST.tmp + atomic rename (bounding
/// manifest growth at one record per subsequent operation).
class DiskBackend : public StorageBackend {
 public:
  static Result<std::unique_ptr<DiskBackend>> Open(
      const DiskBackendOptions& options);

  size_t run_count() const override { return runs_.size(); }
  size_t run_entries(size_t index) const override {
    return runs_[index]->entry_count();
  }
  size_t resident_bytes() const override;
  Status status() const override;
  Status AppendRun(std::vector<Entry> entries, RunOrigin origin) override;
  Status MergeRuns(size_t first, size_t n, MergeStats* stats) override;
  Status ResetTo(std::vector<Entry> entries) override;
  bool FindSlot(const SlotProbe& probe, uint64_t* version,
                bool* deleted) const override;
  void SeekCursor(size_t newest_first_index, const Key& lo,
                  RunCursor* cursor) const override;
  RunSummary RunSummaryAt(size_t index) const override;
  bool FindRunIndexById(uint64_t run_id, size_t* index) const override;

  const storage::BlockCache& block_cache() const { return cache_; }
  uint64_t next_file_number() const { return next_file_number_; }

 private:
  explicit DiskBackend(const DiskBackendOptions& options);

  std::string PathOf(const std::string& name) const;
  Status Recover();
  /// Writes run-<file_number> from sorted entries and opens it.
  Status WriteRunFile(const std::vector<Entry>& entries, uint64_t file_number,
                      std::shared_ptr<storage::DiskRun>* out);
  /// Appends one framed record to the manifest and syncs it.
  Status AppendManifest(const storage::manifest::Record& record);
  /// Writes a fresh manifest holding only the current state via
  /// MANIFEST.tmp + rename, then reopens it for appending.
  Status RewriteManifest();
  /// Best-effort deletion of a no-longer-referenced run file.
  void DeleteRunFile(uint64_t file_number);

  DiskBackendOptions options_;
  storage::Env* env_;
  mutable storage::BlockCache cache_;
  std::vector<std::shared_ptr<storage::DiskRun>> runs_;  // Oldest first.
  uint64_t next_file_number_ = 1;
  std::unique_ptr<storage::WritableFile> manifest_;
  Status io_status_;  // First write-path error (wedges the backend).
  /// Lazily computed content CRCs keyed by file number; entries are
  /// dropped when the run file is deleted (runs are immutable, so a
  /// cached CRC can never go stale while the run exists).
  mutable std::unordered_map<uint64_t, uint32_t> run_crc_;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_STORAGE_BACKEND_H_
