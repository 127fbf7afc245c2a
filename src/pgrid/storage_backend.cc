#include "pgrid/storage_backend.h"

#include <utility>

#include "pgrid/run_merge.h"

namespace unistore {
namespace pgrid {

namespace {

// One beyond the transient (kMaxRuns + 1)-run state a flush-triggered
// compaction can merge; mirrors LocalStoreOptions::kMaxRuns without a
// header cycle (static_asserted against it in local_store.cc).
constexpr size_t kMaxMergeFanIn = 16;

}  // namespace

size_t MemoryBackend::resident_bytes() const {
  size_t bytes = 0;
  for (const SortedRun& run : runs_) bytes += run.resident_bytes();
  return bytes;
}

Status MemoryBackend::AppendRun(std::vector<Entry> entries,
                                RunOrigin /*origin*/) {
  if (entries.empty()) return Status::OK();
  runs_.push_back(SortedRun::Build(std::move(entries)));
  meta_.push_back(RunMeta{next_run_id_++, false, 0});
  return Status::OK();
}

Status MemoryBackend::MergeRuns(size_t first, size_t n, MergeStats* stats) {
  *stats = MergeStats{};
  if (n < 2) return Status::OK();
  if (first + n > runs_.size() || n > kMaxMergeFanIn) {
    return Status::Internal("MergeRuns group out of range: first=", first,
                            " n=", n, " runs=", runs_.size());
  }
  // K-way merge of the group only (run_merge.h). Winning views stream
  // straight into a run Builder — arena to arena, without materializing
  // an Entry per slot.
  SortedRun::Cursor cursors[kMaxMergeFanIn];
  size_t expected = 0;
  size_t expected_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const SortedRun& run = runs_[first + i];
    cursors[i].Seek(&run, Key());
    expected += run.size();
    expected_bytes += run.resident_bytes();
  }
  SortedRun::Builder builder(expected, expected_bytes);
  MergeCursorStreams(cursors, n,
                     [&builder](const EntryView& v) { builder.Add(v); });
  SortedRun merged = builder.Finish();
  stats->entries = merged.size();
  stats->bytes = builder.approx_bytes();
  runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(first + 1),
              runs_.begin() + static_cast<ptrdiff_t>(first + n));
  runs_[first] = std::move(merged);
  // The merged run is new content: give it a fresh id and drop the stale
  // cached checksum.
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(first + 1),
              meta_.begin() + static_cast<ptrdiff_t>(first + n));
  meta_[first] = RunMeta{next_run_id_++, false, 0};
  return Status::OK();
}

Status MemoryBackend::ResetTo(std::vector<Entry> entries) {
  runs_.clear();
  meta_.clear();
  if (!entries.empty()) {
    runs_.push_back(SortedRun::Build(std::move(entries)));
    meta_.push_back(RunMeta{next_run_id_++, false, 0});
  }
  return Status::OK();
}

bool MemoryBackend::FindSlot(const SlotProbe& probe, uint64_t* version,
                             bool* deleted) const {
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    if (run->FindSlot(probe, version, deleted)) return true;
  }
  return false;
}

void MemoryBackend::SeekCursor(size_t newest_first_index,
                               const Key& lo,
                               RunCursor* cursor) const {
  cursor->mem().Seek(&runs_[runs_.size() - 1 - newest_first_index], lo);
}

RunSummary MemoryBackend::RunSummaryAt(size_t index) const {
  const RunMeta& meta = meta_[index];
  if (!meta.has_crc) {
    RunChecksum sum;
    SortedRun::Cursor cursor;
    for (cursor.Seek(&runs_[index], Key()); cursor.valid(); cursor.Advance()) {
      sum.Add(cursor.view());
    }
    meta.crc = sum.crc;
    meta.has_crc = true;
  }
  return RunSummary{meta.id, runs_[index].size(), meta.crc};
}

bool MemoryBackend::FindRunIndexById(uint64_t run_id, size_t* index) const {
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].id == run_id) {
      *index = i;
      return true;
    }
  }
  return false;
}

}  // namespace pgrid
}  // namespace unistore
