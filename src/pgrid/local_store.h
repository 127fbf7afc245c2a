// Per-peer ordered key/entry storage: memtable + immutable sorted runs.
#ifndef UNISTORE_PGRID_LOCAL_STORE_H_
#define UNISTORE_PGRID_LOCAL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/function_ref.h"
#include "common/status.h"
#include "pgrid/entry.h"
#include "pgrid/key.h"
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

  /// Hard cap on the number of resident runs (scan fan-in bound). When the
  /// compaction policy leaves more runs than this, the newest runs are
  /// merged down until the store fits. Clamped to kMaxRuns.
  size_t max_runs = 10;

  /// How runs are compacted.
  enum class CompactionPolicy : uint8_t {
    /// Size-tiered: a run merges with the newer runs once they hold a
    /// comparable number of entries (amortized O(log N) write
    /// amplification). The default.
    kTiered = 0,
    /// The pre-tiering behaviour: every compaction merges ALL runs into
    /// one (O(store) rewritten per compaction). Kept as the
    /// write-amplification baseline for bench_bulk_load.
    kFullMerge = 1,
  };
  CompactionPolicy compaction = CompactionPolicy::kTiered;

  /// Tiered policy: runs a compaction group must span before it merges
  /// into one (the tier fan-in). Minimum 2.
  size_t tier_fanin = 4;

  /// Tiered policy: growth factor — a group of the newest runs absorbs
  /// the next older run iff that run holds at most tier_growth times the
  /// group's entries. Minimum 2.
  size_t tier_growth = 4;

  /// Entries per restart block of a run: runs store packed key bytes
  /// shared-prefix-truncated against the previous entry, with a full key
  /// every `restart_interval` entries (sorted_run.h). Minimum 1.
  size_t restart_interval = 16;

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
  uint64_t ingested_entries = 0;  ///< Entries accepted by Apply/BulkLoad.
  uint64_t ingested_bytes = 0;
  uint64_t flushed_entries = 0;   ///< Entries written by memtable flushes.
  uint64_t flushed_bytes = 0;
  uint64_t compacted_entries = 0; ///< Entries rewritten by compactions.
  uint64_t compacted_bytes = 0;
  uint64_t bulk_loaded_entries = 0;  ///< Entries written by BulkLoad runs.
  uint64_t bulk_loaded_bytes = 0;
  uint64_t compactions = 0;       ///< Merge operations performed.

  /// Total bytes the engine wrote to runs, divided by the bytes ingested:
  /// the write-amplification factor bench_bulk_load gates on.
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
/// engine): Apply lands in a small mutable memtable; full memtables freeze
/// into immutable sorted runs; runs compact under a size-tiered policy
/// (a run merges only with newer runs of comparable total size —
/// amortized O(log N) write amplification), bounded by `max_runs`. BulkLoad turns a pre-sorted batch directly into a run,
/// bypassing the memtable. Because a version-ordered upsert always lands
/// in the newest structure, reads resolve a slot to its newest occurrence
/// (memtable, then runs newest to oldest). Tombstones survive flushes and
/// compactions.
///
/// The run set itself lives behind a pluggable StorageBackend
/// (storage_backend.h): the in-memory engine keeps the original SortedRun
/// vector; the disk engine persists runs as checksummed block files with
/// an append-only manifest, and a store constructed over an existing
/// data_dir recovers its acknowledged contents. Both engines produce
/// byte-identical scan streams for the same operation history.
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

  /// Applies `entry` (insert, update or tombstone). Returns true iff the
  /// store changed (i.e. the entry was new or newer).
  bool Apply(const Entry& entry);

  /// \brief Bulk ingest: turns `entries` directly into a sorted run,
  /// bypassing the per-entry memtable path.
  ///
  /// The batch is sorted and deduplicated by slot (highest version wins
  /// within the batch); entries whose slot already exists in the store
  /// fall back to the Apply path so versioned-upsert/tombstone semantics
  /// stay exact. Returns the number of entries that changed the store,
  /// and appends those entries to `changed` when it is given.
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

  /// Approximate resident footprint of memtable + runs in bytes
  /// (bench_bulk_load gates the prefix-compression savings on this).
  size_t resident_bytes() const;

  /// Cumulative write-path accounting since construction/Clear.
  const LocalStoreWriteStats& write_stats() const { return stats_; }

  /// Freezes the memtable into a run now (compacting per policy).
  void Flush();

  /// Merges all runs (and the memtable) into one run now.
  void Compact();

 private:
  // A slot is one logical datum: the (key, entry id) pair.
  using SlotKey = std::pair<Key, std::string>;

  // Borrowed full-slot probe key (allocation-free memtable lookups).
  struct SlotRef {
    const Key& key;
    std::string_view id;
  };

  // Transparent comparator: the Key overloads compare against the key
  // only, so scans can position at a range's lower bound without
  // materializing a SlotKey; the SlotRef overloads compare whole slots so
  // point probes (FindLatest, BulkLoad) skip the SlotKey materialization.
  struct SlotLess {
    using is_transparent = void;
    bool operator()(const SlotKey& a, const SlotKey& b) const {
      return a < b;
    }
    bool operator()(const SlotKey& a, const Key& lo) const {
      return a.first < lo;
    }
    bool operator()(const Key& lo, const SlotKey& a) const {
      return lo < a.first;
    }
    bool operator()(const SlotKey& a, const SlotRef& b) const {
      const int c = a.first.Compare(b.key);
      return c != 0 ? c < 0 : std::string_view(a.second) < b.id;
    }
    bool operator()(const SlotRef& b, const SlotKey& a) const {
      const int c = b.key.Compare(a.first);
      return c != 0 ? c < 0 : b.id < std::string_view(a.second);
    }
  };
  using Memtable = std::map<SlotKey, Entry, SlotLess>;

  // Newest occurrence of the slot across memtable + runs.
  struct SlotInfo {
    bool found = false;
    uint64_t version = 0;
    bool deleted = false;
  };
  SlotInfo FindLatest(const Key& key, std::string_view id) const;

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
  // Applies the configured compaction policy, which keeps the run count
  // within max_runs.
  void MaybeCompact();
  // The size-tiered policy (see the .cc), repeated until stable.
  void TierCompact();
  // Merges runs [first, first+n) through the backend and counts the
  // rewrite into stats_; wedges on backend failure.
  void MergeRuns(size_t first, size_t n);
  // Hands sorted+deduped entries to the backend as a new run, counting
  // `origin` stats; wedges on failure.
  void AppendRun(std::vector<Entry> entries, uint8_t origin);
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
