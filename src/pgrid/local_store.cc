#include "pgrid/local_store.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "pgrid/run_merge.h"
#include "pgrid/sorted_run.h"
#include "pgrid/storage_backend.h"

namespace unistore {
namespace pgrid {
namespace {

// Both backends merge through fixed cursor arrays of kMaxMergeFanIn = 16;
// the policy layer must never ask them to merge a wider group. The widest
// group possible is every run plus the transient one a flush-triggered
// compaction sees.
static_assert(LocalStoreOptions::kMaxRuns + 1 <= 16,
              "merge fan-in exceeds the backends' fixed cursor arrays");

// Sorts by slot; on slot ties the higher version first and on full ties
// the original batch position first, so a first-wins dedup pass keeps
// exactly the entry sequential Apply calls would have kept. Sorts an
// index of (first key word, batch position) records with a stable LSD
// radix sort on the word — one byte per pass, skipping bytes every word
// shares — then orders each group of equal words by the full slot
// comparison, and permutes the heavy Entry objects once at the end.
void SortBatchBySlot(std::vector<Entry>* entries) {
  struct IndexKey {
    uint64_t first_word;
    uint32_t index;
  };
  const std::vector<Entry>& e = *entries;
  const size_t n = e.size();
  if (n < 2) return;
  std::vector<IndexKey> order(n);
  size_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = e[i].key.word(0);
    order[i] = {w, static_cast<uint32_t>(i)};
    for (size_t d = 0; d < 8; ++d) ++counts[d][(w >> (8 * d)) & 0xFF];
  }
  std::vector<IndexKey> scratch(n);
  for (size_t d = 0; d < 8; ++d) {
    size_t* count = counts[d];
    if (count[(order[0].first_word >> (8 * d)) & 0xFF] == n) continue;
    size_t at = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = at;
      at += c;
    }
    for (const IndexKey& k : order) {
      scratch[count[(k.first_word >> (8 * d)) & 0xFF]++] = k;
    }
    order.swap(scratch);
  }
  for (size_t lo = 0; lo < n;) {
    size_t hi = lo + 1;
    while (hi < n && order[hi].first_word == order[lo].first_word) ++hi;
    std::sort(order.begin() + lo, order.begin() + hi,
              [&e](const IndexKey& a, const IndexKey& b) {
                const Entry& ea = e[a.index];
                const Entry& eb = e[b.index];
                const int c = ea.key.Compare(eb.key);
                if (c != 0) return c < 0;
                const int ic = ea.id.compare(eb.id);
                if (ic != 0) return ic < 0;
                if (ea.version != eb.version) return ea.version > eb.version;
                return a.index < b.index;  // Stability for exact ties.
              });
    lo = hi;
  }
  std::vector<Entry> sorted;
  sorted.reserve(n);
  for (const IndexKey& k : order) {
    sorted.push_back(std::move((*entries)[k.index]));
  }
  *entries = std::move(sorted);
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalStoreOptions
// ---------------------------------------------------------------------------

LocalStoreOptions LocalStoreOptions::Sanitized(
    std::vector<std::string>* warnings) const {
  LocalStoreOptions o = *this;
  auto warn = [warnings](std::string message) {
    if (warnings != nullptr) warnings->push_back(std::move(message));
  };
  if (o.memtable_flush_threshold == 0) {
    o.memtable_flush_threshold = 1;
    warn("memtable_flush_threshold 0 is invalid; clamped to 1");
  }
  if (o.max_runs == 0) {
    o.max_runs = 1;
    warn("max_runs 0 is invalid; clamped to 1");
  } else if (o.max_runs > kMaxRuns) {
    warn("max_runs " + std::to_string(o.max_runs) +
         " exceeds the fixed scan-cursor bound; clamped to kMaxRuns = " +
         std::to_string(kMaxRuns));
    o.max_runs = kMaxRuns;
  }
  if (o.backend == Backend::kDisk && o.data_dir.empty()) {
    o.backend = Backend::kMemory;
    warn("backend kDisk requires a data_dir; falling back to kMemory");
  }
  if (o.block_bytes < 128) {
    warn("block_bytes " + std::to_string(o.block_bytes) +
         " below minimum; clamped to 128");
    o.block_bytes = 128;
  }
  return o;
}

// ---------------------------------------------------------------------------
// LocalStore
// ---------------------------------------------------------------------------

LocalStore::LocalStore(const LocalStoreOptions& options) {
  std::vector<std::string> warnings;
  options_ = options.Sanitized(&warnings);
  for (const std::string& w : warnings) {
    UNISTORE_LOG(kWarning) << "LocalStoreOptions: " << w;
  }
  if (options_.backend == LocalStoreOptions::Backend::kDisk) {
    DiskBackendOptions dbo;
    dbo.data_dir = options_.data_dir;
    dbo.env = options_.env;
    dbo.block_bytes = options_.block_bytes;
    dbo.block_cache_bytes = options_.block_cache_bytes;
    Result<std::unique_ptr<DiskBackend>> opened = DiskBackend::Open(dbo);
    if (opened.ok()) {
      backend_ = std::move(opened).value();
    } else {
      // The store stays constructible so the peer can keep serving its
      // in-memory state; the wedge records why nothing persists.
      UNISTORE_LOG(kError) << "LocalStore: disk backend open failed ("
                           << opened.status().message()
                           << "); wedged with an empty in-memory run set";
      io_status_ = opened.status();
    }
  }
  if (backend_ == nullptr) {
    backend_ = std::make_unique<MemoryBackend>();
  }
  if (backend_->run_count() > 0) RecountFromBackend();
}

LocalStore::~LocalStore() = default;
LocalStore::LocalStore(LocalStore&&) noexcept = default;
LocalStore& LocalStore::operator=(LocalStore&&) noexcept = default;

Status LocalStore::io_status() const {
  if (!io_status_.ok()) return io_status_;
  return backend_->status();
}

void LocalStore::Wedge(const Status& status) {
  if (!io_status_.ok()) return;
  io_status_ = status;
  UNISTORE_LOG(kError) << "LocalStore wedged: " << status.message();
}

size_t LocalStore::run_count() const { return backend_->run_count(); }

void LocalStore::RecountFromBackend() {
  // A disk store reopened over an existing data_dir recovers its run set
  // but not the counters; one merged pass over the recovered runs (the
  // memtable is empty at construction) rebuilds them.
  size_t slots = 0;
  size_t live = 0;
  ScanMerged(Key(), ScanBound::kNone, Key(), /*include_tombstones=*/true,
             [&slots, &live](const EntryView& e) {
               ++slots;
               if (!e.deleted) ++live;
               return true;
             });
  slot_count_ = slots;
  live_count_ = live;
}

LocalStore::SlotInfo LocalStore::FindLatest(const Key& key,
                                            std::string_view id) const {
  SlotInfo info;
  auto it = memtable_.find(SlotRef{key, id});
  if (it != memtable_.end()) {
    info.found = true;
    info.version = it->second.version;
    info.deleted = it->second.deleted;
    return info;
  }
  info.found = backend_->FindSlot(SlotProbe(key, id), &info.version,
                                  &info.deleted);
  return info;
}

bool LocalStore::Apply(const Entry& entry) {
  if (!io_status_.ok()) return false;  // Wedged: mutations no-op.
  const SlotInfo cur = FindLatest(entry.key, entry.id);
  if (cur.found && entry.version <= cur.version) return false;
  if (!cur.found) {
    ++slot_count_;
    if (!entry.deleted) ++live_count_;
  } else {
    if (!cur.deleted && entry.deleted) --live_count_;
    if (cur.deleted && !entry.deleted) ++live_count_;
  }
  ++stats_.ingested_entries;
  stats_.ingested_bytes += ApproxEntryBytes(entry);
  memtable_.insert_or_assign(SlotKey(entry.key, entry.id), entry);
  MaybeFlush();
  return true;
}

size_t LocalStore::BulkLoad(std::vector<Entry> entries,
                            std::vector<Entry>* changed_out) {
  if (entries.empty() || !io_status_.ok()) return 0;
  SortBatchBySlot(&entries);
  // Within-batch dedup: slots arrive grouped, newest occurrence first.
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key && a.id == b.id;
                            }),
                entries.end());

  // Fresh slots are compacted to the front of the batch, in slot order:
  // entries[0, fresh) becomes the new run without another copy. Known
  // slots go through Apply after the loop, so `changed_out` lists the
  // fresh slots first and then the updates.
  size_t fresh = 0;
  std::vector<Entry> updates;
  size_t changed = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry& e = entries[i];
    const SlotInfo cur = FindLatest(e.key, e.id);
    if (!cur.found) {
      ++slot_count_;
      if (!e.deleted) ++live_count_;
      ++changed;
      ++stats_.ingested_entries;
      stats_.ingested_bytes += ApproxEntryBytes(e);
      if (changed_out != nullptr) changed_out->push_back(e);
      if (fresh != i) entries[fresh] = std::move(e);
      ++fresh;
    } else if (e.version > cur.version) {
      // Known slot: preserve exact versioned-upsert semantics through
      // the memtable path (Apply counts its own stats).
      updates.push_back(std::move(e));
    }
  }
  for (Entry& e : updates) {
    if (!Apply(e)) continue;
    ++changed;
    if (changed_out != nullptr) changed_out->push_back(std::move(e));
  }

  entries.resize(fresh);
  if (!entries.empty()) {
    AppendRun(std::move(entries), static_cast<uint8_t>(RunOrigin::kBulkLoad));
    MaybeCompact();
  }
  return changed;
}

bool LocalStore::ScanMerged(const Key& lo, ScanBound bound,
                            const Key& bound_key, bool include_tombstones,
                            EntryVisitor visit) const {
  // One source: the memtable, iterated in slot order with views built on
  // demand (the map stores whole Entries, not views).
  struct Source {
    bool is_memtable = false;
    Memtable::const_iterator mem_pos;
    Memtable::const_iterator mem_end;
    EntryView mem_view;
    RunCursor run;

    const EntryView* head() {
      if (is_memtable) {
        if (mem_pos == mem_end) return nullptr;
        mem_view = EntryView(mem_pos->second);
        return &mem_view;
      }
      return run.valid() ? &run.view() : nullptr;
    }
    void Advance() {
      if (is_memtable) {
        ++mem_pos;
      } else {
        run.Advance();
      }
    }
  };

  // Source 0 is the memtable, then runs newest to oldest: on a slot tie
  // the lowest source index is the newest occurrence and wins. Steady
  // state has at most kMaxRuns runs, but the compaction triggered by a
  // flush or bulk load scans while the transient (kMaxRuns+1)-th run is
  // still in place — hence the extra slot beyond memtable + kMaxRuns.
  Source cursors[LocalStoreOptions::kMaxRuns + 2];
  size_t n = 0;

  Source& mem = cursors[n++];
  mem.is_memtable = true;
  mem.mem_pos = memtable_.lower_bound(lo);
  mem.mem_end = memtable_.end();

  const size_t run_count = backend_->run_count();
  for (size_t i = 0; i < run_count; ++i) {
    backend_->SeekCursor(i, lo, &cursors[n++].run);
  }

  while (true) {
    // The newest occurrence of the smallest slot across all sources.
    const EntryView* best = nullptr;
    size_t best_i = 0;
    for (size_t i = 0; i < n; ++i) {
      const EntryView* head = cursors[i].head();
      if (head == nullptr) continue;
      if (best == nullptr || SlotCompare(*head, *best) < 0) {
        best = head;
        best_i = i;
      }
    }
    if (best == nullptr) return true;

    switch (bound) {
      case ScanBound::kRangeHi:
        if (best->key > bound_key) return true;
        break;
      case ScanBound::kPrefix:
        if (!bound_key.IsPrefixOf(best->key)) return true;
        break;
      case ScanBound::kNone:
        break;
    }

    if (include_tombstones || !best->deleted) {
      if (!visit(*best)) return false;
    }

    // Advance every source sitting on this slot (shadowed older
    // occurrences are skipped, newest-wins). The winning cursor advances
    // LAST: `best` points at its view, which its own Advance overwrites,
    // while the other cursors' advances cannot touch it.
    for (size_t i = 0; i < n; ++i) {
      if (i == best_i) continue;
      const EntryView* head = cursors[i].head();
      if (head != nullptr && SameSlot(*head, *best)) cursors[i].Advance();
    }
    cursors[best_i].Advance();
  }
}

bool LocalStore::ScanKey(const Key& key, EntryVisitor visit) const {
  return ScanMerged(key, ScanBound::kRangeHi, key,
                    /*include_tombstones=*/false, visit);
}

bool LocalStore::ScanRange(const KeyRange& range, EntryVisitor visit) const {
  return ScanMerged(range.lo, ScanBound::kRangeHi, range.hi,
                    /*include_tombstones=*/false, visit);
}

bool LocalStore::ScanPrefix(const Key& prefix, EntryVisitor visit) const {
  return ScanMerged(prefix, ScanBound::kPrefix, prefix,
                    /*include_tombstones=*/false, visit);
}

bool LocalStore::ScanAll(EntryVisitor visit) const {
  return ScanMerged(Key(), ScanBound::kNone, Key(),
                    /*include_tombstones=*/true, visit);
}

bool LocalStore::ScanAllLive(EntryVisitor visit) const {
  return ScanMerged(Key(), ScanBound::kNone, Key(),
                    /*include_tombstones=*/false, visit);
}

std::vector<RunSummary> LocalStore::RunSummaries() const {
  std::vector<RunSummary> out;
  const size_t n = backend_->run_count();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(backend_->RunSummaryAt(i));
  return out;
}

bool LocalStore::RunSummaryById(uint64_t run_id, RunSummary* out) const {
  size_t index = 0;
  if (!backend_->FindRunIndexById(run_id, &index)) return false;
  *out = backend_->RunSummaryAt(index);
  return true;
}

bool LocalStore::ScanRunById(uint64_t run_id, uint64_t start_entry,
                             EntryVisitor visit) const {
  size_t index = 0;
  if (!backend_->FindRunIndexById(run_id, &index)) return false;
  const size_t newest_first = backend_->run_count() - 1 - index;
  RunCursor cursor;
  backend_->SeekCursor(newest_first, Key(), &cursor);
  // Chunk resume: skip to the requested offset. O(start_entry), which a
  // resumed fetch pays once per retried chunk — not per entry shipped.
  for (uint64_t i = 0; i < start_entry && cursor.valid(); ++i) {
    cursor.Advance();
  }
  for (; cursor.valid(); cursor.Advance()) {
    if (!visit(cursor.view())) break;
  }
  return true;
}

bool LocalStore::ScanMemtableFrom(uint64_t start_entry,
                                  EntryVisitor visit) const {
  uint64_t i = 0;
  for (const auto& [slot, entry] : memtable_) {
    if (i++ < start_entry) continue;
    if (!visit(EntryView(entry))) break;
  }
  return true;
}

namespace {

std::vector<Entry> Collect(
    FunctionRef<bool(LocalStore::EntryVisitor)> scan) {
  std::vector<Entry> out;
  scan([&out](const EntryView& e) {
    out.push_back(e.ToEntry());
    return true;
  });
  return out;
}

}  // namespace

std::vector<Entry> LocalStore::Get(const Key& key) const {
  return Collect([&](EntryVisitor v) { return ScanKey(key, v); });
}

std::vector<Entry> LocalStore::GetRange(const KeyRange& range) const {
  return Collect([&](EntryVisitor v) { return ScanRange(range, v); });
}

std::vector<Entry> LocalStore::GetByPrefix(const Key& prefix) const {
  return Collect([&](EntryVisitor v) { return ScanPrefix(prefix, v); });
}

std::vector<Entry> LocalStore::GetAll() const {
  std::vector<Entry> out;
  out.reserve(slot_count_);
  ScanAll([&out](const EntryView& e) {
    out.push_back(e.ToEntry());
    return true;
  });
  return out;
}

std::vector<Entry> LocalStore::GetAllLive() const {
  std::vector<Entry> out;
  out.reserve(live_count_);
  ScanAllLive([&out](const EntryView& e) {
    out.push_back(e.ToEntry());
    return true;
  });
  return out;
}

std::vector<Entry> LocalStore::ExtractNotMatching(const Key& path) {
  std::vector<Entry> kept;
  std::vector<Entry> removed;
  kept.reserve(slot_count_);
  ScanAll([&](const EntryView& e) {
    if (path.IsPrefixOf(e.key)) {
      kept.push_back(e.ToEntry());
    } else {
      removed.push_back(e.ToEntry());
    }
    return true;
  });
  RebuildFrom(std::move(kept));
  return removed;
}

void LocalStore::Clear() {
  if (!io_status_.ok()) return;  // Wedged: mutations no-op.
  const Status s = backend_->ResetTo({});
  if (!s.ok()) {
    Wedge(s);
    return;
  }
  memtable_.clear();
  live_count_ = 0;
  slot_count_ = 0;
  stats_ = LocalStoreWriteStats{};
}

size_t LocalStore::resident_bytes() const {
  // Rough std::map node overhead per memtable entry (three pointers,
  // color, the SlotKey).
  size_t bytes = 0;
  for (const auto& [slot, e] : memtable_) {
    bytes += ApproxEntryBytes(e) + sizeof(SlotKey) + slot.second.size() +
             4 * sizeof(void*);
  }
  return bytes + backend_->resident_bytes();
}

void LocalStore::MaybeFlush() {
  if (memtable_.size() >= options_.memtable_flush_threshold) Flush();
}

void LocalStore::Flush() {
  if (!io_status_.ok()) return;
  if (!memtable_.empty()) {
    std::vector<Entry> entries;
    entries.reserve(memtable_.size());
    for (auto& [slot, entry] : memtable_) {
      entries.push_back(std::move(entry));
    }
    memtable_.clear();
    AppendRun(std::move(entries), static_cast<uint8_t>(RunOrigin::kFlush));
  }
  MaybeCompact();
}

void LocalStore::Compact() {
  Flush();
  const size_t runs = backend_->run_count();
  if (runs > 1) MergeRuns(0, runs);
}

void LocalStore::MaybeCompact() {
  // Grow a group from the newest run toward older ones while the next
  // older run holds at most kTierGrowth times the group's entries, and
  // merge it once it spans kTierFanin runs. Run sizes thus grow
  // geometrically toward the oldest run, which is rewritten only when the
  // newer data has grown comparable to it. Over max_runs, the group
  // widens to as many of the newest (smallest) runs as bring the store
  // back under the bound. Repeats until stable: a merged group may join
  // an older one.
  while (io_status_.ok()) {
    const size_t n = backend_->run_count();
    if (n < 2) return;
    size_t start = n - 1;
    uint64_t group = backend_->run_entries(start);
    while (start > 0 &&
           backend_->run_entries(start - 1) <=
               LocalStoreOptions::kTierGrowth * group) {
      group += backend_->run_entries(--start);
    }
    const size_t excess = n > options_.max_runs ? n - options_.max_runs : 0;
    if (excess == 0 && n - start < LocalStoreOptions::kTierFanin) return;
    start = std::min(start, n - 1 - excess);
    MergeRuns(start, n - start);
  }
}

void LocalStore::MergeRuns(size_t first, size_t n) {
  if (n < 2 || !io_status_.ok()) return;
  MergeStats merged;
  const Status s = backend_->MergeRuns(first, n, &merged);
  if (!s.ok()) {
    Wedge(s);
    return;
  }
  ++stats_.compactions;
  stats_.compacted_entries += merged.entries;
  stats_.compacted_bytes += merged.bytes;
}

void LocalStore::AppendRun(std::vector<Entry> entries, uint8_t origin_raw) {
  if (entries.empty() || !io_status_.ok()) return;
  const auto origin = static_cast<RunOrigin>(origin_raw);
  size_t bytes = 0;
  for (const Entry& e : entries) bytes += ApproxEntryBytes(e);
  const size_t count = entries.size();
  const Status s = backend_->AppendRun(std::move(entries), origin);
  if (!s.ok()) {
    // The entries are lost from the run set; the wedge keeps the store
    // from diverging further. A durable backend recovers the last
    // acknowledged state on reopen.
    Wedge(s);
    return;
  }
  switch (origin) {
    case RunOrigin::kFlush:
      stats_.flushed_entries += count;
      stats_.flushed_bytes += bytes;
      break;
    case RunOrigin::kBulkLoad:
      stats_.bulk_loaded_entries += count;
      stats_.bulk_loaded_bytes += bytes;
      break;
    case RunOrigin::kCompaction:
    case RunOrigin::kRebuild:
      stats_.compacted_entries += count;
      stats_.compacted_bytes += bytes;
      break;
  }
}

void LocalStore::RebuildFrom(std::vector<Entry> all_slots) {
  if (!io_status_.ok()) return;
  size_t live = 0;
  size_t bytes = 0;
  for (const Entry& e : all_slots) {
    if (!e.deleted) ++live;
    bytes += ApproxEntryBytes(e);
  }
  const size_t slots = all_slots.size();
  const Status s = backend_->ResetTo(std::move(all_slots));
  if (!s.ok()) {
    Wedge(s);
    return;
  }
  memtable_.clear();
  slot_count_ = slots;
  live_count_ = live;
  if (slots > 0) {
    ++stats_.compactions;
    // ResetTo rebuilt every kept slot into one run.
    stats_.compacted_entries += slots;
    stats_.compacted_bytes += bytes;
  }
}

}  // namespace pgrid
}  // namespace unistore
