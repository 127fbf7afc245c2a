// Per-peer ordered key/entry storage: memtable + immutable sorted runs.
#ifndef UNISTORE_PGRID_LOCAL_STORE_H_
#define UNISTORE_PGRID_LOCAL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/status.h"
#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "pgrid/memtable.h"
#include "pgrid/run_summary.h"

namespace unistore {
namespace pgrid {

class StorageBackend;

namespace storage {
class Env;
}  // namespace storage

/// Tunables of the storage engine.
struct LocalStoreOptions {
  /// Memtable entries at which the memtable is frozen into a sorted run.
  size_t memtable_flush_threshold = 512;

  /// Hard cap on the number of resident runs (scan fan-in bound). When
  /// size-tiered compaction leaves more runs than this, the newest runs
  /// are merged down until the store fits. Clamped to kMaxRuns.
  size_t max_runs = 10;

  /// Which engine owns the run set.
  enum class Backend : uint8_t {
    /// In-process SortedRun vector (the default; the determinism oracle).
    kMemory = 0,
    /// Durable run files + manifest under `data_dir`; the store recovers
    /// its acknowledged run set on reopen (DESIGN.md § Durable storage
    /// backend).
    kDisk = 1,
  };
  Backend backend = Backend::kMemory;

  /// Directory of the disk backend's run files and manifest. Required
  /// for Backend::kDisk (an empty dir falls back to kMemory with a
  /// warning); each Peer appends "/peer-<id>" so the peers of one
  /// cluster never share a directory.
  std::string data_dir;

  /// Disk backend: capacity of the per-store LRU block cache. A soft
  /// bound — cursors pin the blocks they stand on.
  size_t block_cache_bytes = 4 << 20;

  /// Disk backend: target (uncompressed payload) size of one run-file
  /// block, the unit of checksumming and cache residency. Minimum 128.
  size_t block_bytes = 4096;

  /// Disk backend: filesystem to write through. Null selects the real
  /// (POSIX) filesystem; tests inject a MemEnv to simulate crashes and
  /// I/O faults.
  storage::Env* env = nullptr;

  /// Hard upper bound on `max_runs`: scans merge through a fixed-size
  /// cursor array (memtable + kMaxRuns runs, plus one transient run
  /// during a flush-triggered compaction), which keeps the visitor read
  /// path free of heap allocation.
  static constexpr size_t kMaxRuns = 15;

  /// Size-tiered compaction: a run merges with the newer runs once they
  /// hold a comparable number of entries (amortized O(log N) write
  /// amplification, DESIGN.md §6). A group grows from the newest run and
  /// absorbs the next older run iff that run holds at most kTierGrowth
  /// times the group's entries; it merges into one run once it spans
  /// kTierFanin runs.
  static constexpr size_t kTierFanin = 4;
  static constexpr size_t kTierGrowth = 4;

  /// \brief Returns a copy with every out-of-range knob clamped to its
  /// nearest valid value, appending one human-readable line per clamped
  /// knob to `warnings` (when non-null).
  ///
  /// LocalStore's constructor sanitizes through this and LOGs each
  /// warning, so a mis-tuned `PeerOptions.storage` surfaces at
  /// Cluster/Peer construction instead of silently clamping.
  LocalStoreOptions Sanitized(std::vector<std::string>* warnings) const;
};

/// Cumulative write-path accounting (write-amplification measurements).
/// "Bytes" are the approximate resident footprint of the entries moved
/// (key + id + fixed overhead), not wire bytes.
struct LocalStoreWriteStats {
  /// Entries that changed the store, through Write, Apply or BulkLoad
  /// (stale versions and in-batch duplicates are not counted).
  uint64_t ingested_entries = 0;
  uint64_t ingested_bytes = 0;
  uint64_t flushed_entries = 0;   ///< Entries written by memtable flushes.
  uint64_t flushed_bytes = 0;
  uint64_t compacted_entries = 0; ///< Entries rewritten by compactions.
  uint64_t compacted_bytes = 0;
  /// Entries written as runs by BulkLoad, or by a Write that filled a
  /// memtable.
  uint64_t bulk_loaded_entries = 0;
  uint64_t bulk_loaded_bytes = 0;
  uint64_t compactions = 0;       ///< Merge operations performed.

  /// Total bytes the engine wrote to runs, divided by the bytes ingested:
  /// the write-amplification factor LocalStoreTierTest checks against a
  /// full-merge policy and bench/e2e reports as local_store.write_amp.
  double WriteAmplification() const {
    const uint64_t written = flushed_bytes + compacted_bytes +
                             bulk_loaded_bytes;
    return ingested_bytes
               ? static_cast<double>(written) /
                     static_cast<double>(ingested_bytes)
               : 0.0;
  }
};

/// \brief The entries a single peer is responsible for, ordered by
/// (key, id).
///
/// Versioned upserts implement the update semantics of [Datta ICDCS'03]:
/// an entry with a higher version replaces the stored one; lower or equal
/// versions are ignored (idempotent re-delivery under rumor spreading).
/// Deletions are tombstones so anti-entropy cannot resurrect them.
///
/// Internally this is a miniature LSM tree (DESIGN.md § Local storage
/// engine). Owner writes go through Write: a batch smaller than
/// `memtable_flush_threshold` lands in a small mutable memtable, a batch
/// that alone fills one becomes a sorted run. Apply (one replicated
/// entry) also lands in the memtable. Full memtables freeze into
/// immutable sorted runs, and runs compact under a size-tiered policy (a
/// run merges only with newer runs of comparable total size — amortized
/// O(log N) write amplification), bounded by `max_runs`. BulkLoad turns
/// a whole batch into a run (repair splices, join and exchange handoffs).
/// Because a version-ordered upsert always lands in the newest
/// structure, reads resolve a slot to its newest occurrence (memtable,
/// then runs newest to oldest). Tombstones survive flushes and
/// compactions.
///
/// The run set itself lives behind a pluggable StorageBackend
/// (storage_backend.h): the in-memory engine keeps the original SortedRun
/// vector; the disk engine persists runs as checksummed block files with
/// an append-only manifest, and logs every Write that lands in the
/// memtable before Write returns. A store constructed over an existing
/// data_dir recovers its acknowledged contents: the runs, then the logged
/// writes replayed into the memtable. Both engines keep identical run
/// sets and produce byte-identical scan streams for the same operation
/// history.
///
/// I/O failures wedge the store instead of aborting: the failed and all
/// subsequent mutations become no-ops, io_status() reports the first
/// error, and reads keep serving whatever the backend still has. The
/// durable contents are whatever the backend acknowledged — reopen a
/// disk-backed store to recover them.
///
/// The read API is visitor-based and zero-copy: Scan* walk a k-way merge
/// of memtable + runs in (key, id) order and hand each winning entry to
/// the visitor as an EntryView — no per-entry copy and, for the in-memory
/// backend, no heap allocation. The Get* wrappers materialize vectors on
/// top of the scans for tests and cold paths (exchange data handoff).
class LocalStore {
 public:
  /// Visitor for scans; return false to stop the scan early.
  using EntryVisitor = FunctionRef<bool(const EntryView&)>;

  LocalStore() : LocalStore(LocalStoreOptions{}) {}
  explicit LocalStore(const LocalStoreOptions& options);
  ~LocalStore();

  // Defined in the .cc (StorageBackend is incomplete here).
  LocalStore(LocalStore&&) noexcept;
  LocalStore& operator=(LocalStore&&) noexcept;

  const LocalStoreOptions& options() const { return options_; }

  /// First storage I/O error (disk backend), or OK. Once non-OK the
  /// store is wedged: mutations no-op. The in-memory backend never
  /// fails.
  Status io_status() const;

  /// Applies `entry` (insert, update or tombstone) to the memtable.
  /// Returns true iff the store changed (i.e. the entry was new or newer).
  /// Not logged: a replica's copy is durable once its memtable flushes.
  bool Apply(const Entry& entry);

  /// \brief An owner write: the batch is sorted and deduplicated by slot
  /// (highest version wins within the batch) and probed against the
  /// store, as BulkLoad does.
  ///
  /// When fewer entries change the store than `memtable_flush_threshold`,
  /// they land in the memtable, and a disk store logs them as one synced
  /// frame before returning (DESIGN.md §6b); a memtable that fills
  /// flushes. A batch that alone fills a memtable is stored as BulkLoad
  /// stores it. Returns the number of entries that changed the store, and
  /// appends them to `changed` when it is given: fresh slots in slot
  /// order, then updated slots in slot order.
  size_t Write(std::vector<Entry> entries,
               std::vector<Entry>* changed = nullptr);

  /// \brief Bulk ingest: turns the batch's fresh slots directly into one
  /// sorted run, bypassing the memtable.
  ///
  /// Sorts, deduplicates and probes like Write; entries whose slot
  /// already exists in the store go through the memtable so
  /// versioned-upsert/tombstone semantics stay exact. Returns and lists
  /// the changed entries as Write does.
  size_t BulkLoad(std::vector<Entry> entries,
                  std::vector<Entry>* changed = nullptr);

  // --- Zero-copy visitor scans (live entries unless stated otherwise) ----

  /// Live entries with exactly this key. Returns false iff the visitor
  /// stopped the scan.
  bool ScanKey(const Key& key, EntryVisitor visit) const;

  /// Live entries with key in [range.lo, range.hi].
  bool ScanRange(const KeyRange& range, EntryVisitor visit) const;

  /// Live entries whose key starts with `prefix`.
  bool ScanPrefix(const Key& prefix, EntryVisitor visit) const;

  /// Every entry including tombstones (anti-entropy transfer).
  bool ScanAll(EntryVisitor visit) const;

  /// Live entries (excluding tombstones), in key order.
  bool ScanAllLive(EntryVisitor visit) const;

  // --- Materializing wrappers (tests, cold paths) ------------------------

  std::vector<Entry> Get(const Key& key) const;
  std::vector<Entry> GetRange(const KeyRange& range) const;
  std::vector<Entry> GetByPrefix(const Key& prefix) const;
  std::vector<Entry> GetAll() const;
  std::vector<Entry> GetAllLive() const;

  // --- Replica repair surface (anti-entropy snapshot shipping) -----------

  /// Summaries (id, entry count, content CRC) of every immutable run,
  /// oldest first — what a donor ships in a kManifestPullReply.
  std::vector<RunSummary> RunSummaries() const;

  /// Summary of the run identified by `run_id`. Returns false if the run
  /// no longer exists (compacted or reset away since the manifest pull).
  bool RunSummaryById(uint64_t run_id, RunSummary* out) const;

  /// Visits the entries of run `run_id` in run order, starting at entry
  /// index `start_entry` (chunk resume offset). Returns false iff the run
  /// no longer exists; the visitor may stop early (chunk budget).
  bool ScanRunById(uint64_t run_id, uint64_t start_entry,
                   EntryVisitor visit) const;

  /// Visits memtable entries (tombstones included) in slot order starting
  /// at index `start_entry` — the fallback entry-stream path for state
  /// that has no run file yet.
  bool ScanMemtableFrom(uint64_t start_entry, EntryVisitor visit) const;

  /// Splits off and returns every entry whose key does *not* have `path`
  /// as a prefix (tombstones included); entries under `path` are kept.
  /// Used when a peer specializes its path during an exchange. Rebuilds
  /// the kept entries into a single compacted run.
  std::vector<Entry> ExtractNotMatching(const Key& path);

  /// Number of live entries.
  size_t live_size() const { return live_count_; }

  /// Number of distinct (key, id) slots including tombstones.
  size_t total_size() const { return slot_count_; }

  void Clear();

  // --- Engine introspection / control (tests, benchmarks) ----------------

  size_t memtable_size() const { return memtable_.size(); }
  size_t run_count() const;

  /// The run-set engine (tests; e.g. downcast to MemoryBackend).
  const StorageBackend& backend() const { return *backend_; }

  /// Approximate resident footprint of memtable + runs in bytes: the
  /// memtable's buffers at their capacity, the runs' arenas, indexes and
  /// filters (LocalStoreCompressionTest checks the prefix-compression
  /// savings on this). O(runs).
  size_t resident_bytes() const;

  /// Cumulative write-path accounting since construction/Clear.
  const LocalStoreWriteStats& write_stats() const { return stats_; }

  /// Freezes the memtable into a run now (compacting per policy).
  void Flush();

  /// Merges all runs (and the memtable) into one run now.
  void Compact();

 private:
  // Newest occurrence of the slot across memtable + runs.
  struct SlotInfo {
    bool found = false;
    uint64_t version = 0;
    bool deleted = false;
  };
  SlotInfo FindLatest(const SlotProbe& probe) const;

  // Whether `e` changes a slot whose newest occurrence is `cur`; if so,
  // counts it into the slot/live totals and the ingest stats.
  bool Admit(const Entry& e, const SlotInfo& cur);

  // The step Write and BulkLoad share: sorts `*entries` by slot, drops
  // in-batch duplicates and entries no newer than the store's, and
  // counts the rest into the slot/live totals and the ingest stats. On
  // return entries[0, fresh) are new slots and entries[fresh, changed)
  // known slots made newer, each in slot order; the vector has `changed`
  // entries, and `changed_out` (when given) lists them in that order.
  // Returns `fresh`.
  size_t SortAndProbe(std::vector<Entry>* entries,
                      std::vector<Entry>* changed_out);
  // Memtable upsert of an entry whose slot and live counts are done.
  void PutInMemtable(const Entry& entry);
  // Stores entries[0, count), fresh slots from SortAndProbe, as one run.
  void StoreFreshAsRun(std::vector<Entry> entries, size_t count);

  enum class ScanBound { kRangeHi, kPrefix, kNone };

  // The merge core: walks all sources in slot order starting at the first
  // slot with key >= `lo`, resolves shadowing (newest source wins per
  // slot), stops once the key leaves the bound (past `bound_key`, or
  // outside the prefix `bound_key`), and visits every winner (skipping
  // tombstones unless `include_tombstones`). No heap allocation on the
  // in-memory backend. Returns false iff the visitor stopped the scan.
  bool ScanMerged(const Key& lo, ScanBound bound, const Key& bound_key,
                  bool include_tombstones, EntryVisitor visit) const;

  // Recounts live/slot totals from the backend (disk recovery).
  void RecountFromBackend();

  void MaybeFlush();
  // Size-tiered compaction (see the .cc), repeated until stable; keeps
  // the run count within max_runs.
  void MaybeCompact();
  // Merges runs [first, first+n) through the backend and counts the
  // rewrite into stats_; wedges on backend failure.
  void MergeRuns(size_t first, size_t n);
  // Hands sorted+deduped entries to the backend as a new run, counting
  // `origin` stats; wedges on failure.
  void AppendRun(const RunInput& entries, uint8_t origin);
  void RebuildFrom(std::vector<Entry> all_slots);  // Sorted, deduped.

  // Records a backend failure, wedging the store.
  void Wedge(const Status& status);

  LocalStoreOptions options_;
  Memtable memtable_;
  std::unique_ptr<StorageBackend> backend_;
  size_t live_count_ = 0;
  size_t slot_count_ = 0;
  LocalStoreWriteStats stats_;
  Status io_status_;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_LOCAL_STORE_H_
