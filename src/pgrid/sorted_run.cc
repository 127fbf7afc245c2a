#include "pgrid/sorted_run.h"

#include <algorithm>

#include "pgrid/run_merge.h"

namespace unistore {
namespace pgrid {

using run_format::ReadVarint;

SortedRun SortedRun::Build(std::vector<Entry> entries,
                           size_t restart_interval) {
  // The arena's exact size, by Builder::Add's restart rule, so Finish
  // never copies the arena to drop slack.
  const size_t interval = std::max<size_t>(1, restart_interval);
  size_t bytes = 0;
  Key prev_key;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i % interval == 0) prev_key = Key();
    bytes += run_format::RecordSize(prev_key, EntryView(entries[i]));
    prev_key = entries[i].key;
  }
  Builder builder(entries.size(), bytes, restart_interval);
  for (const Entry& e : entries) builder.Add(EntryView(e));
  return builder.Finish();
}

SortedRun::Builder::Builder(size_t expected_entries, size_t expected_bytes,
                            size_t restart_interval) {
  run_.restart_interval_ =
      static_cast<uint32_t>(std::max<size_t>(1, restart_interval));
  run_.arena_.reserve(expected_bytes);
  run_.restarts_.reserve(expected_entries / run_.restart_interval_ + 1);
  run_.filter_ = SlotFilter(expected_entries);
}

void SortedRun::Builder::Add(const EntryView& e) {
  approx_bytes_ += ApproxEntryBytes(e);
  if (index_ % run_.restart_interval_ == 0) {
    run_.restarts_.push_back(static_cast<uint32_t>(run_.arena_.size()));
    prev_key_ = Key();  // A restart shares nothing.
  }
  run_format::AppendRecord(&run_.arena_, prev_key_, e);
  run_.filter_.Add(SlotHash(e.key, e.id));
  prev_key_ = e.key;
  ++index_;
}

SortedRun SortedRun::Builder::Finish() {
  run_.count_ = index_;
  // A merge reserves the sum of its inputs, a close upper bound: copying
  // the arena to drop a small slack costs more than the slack.
  if (run_.arena_.capacity() - run_.arena_.size() > run_.arena_.size() / 8) {
    run_.arena_.shrink_to_fit();
  }
  run_.resident_bytes_ = sizeof(SortedRun) + run_.arena_.size() +
                         run_.restarts_.size() * sizeof(uint32_t) +
                         run_.filter_.bytes();
  return std::move(run_);
}

// Full key of the restart record `index` (restart records store the
// whole key).
Key SortedRun::RestartKey(size_t index) const {
  size_t pos = restarts_[index];
  ReadVarint(arena_, &pos);  // shared == 0 at restarts.
  const uint64_t bit_len = ReadVarint(arena_, &pos);
  return Key::FromBytes(
      reinterpret_cast<const unsigned char*>(arena_.data()) + pos, bit_len);
}

void SortedRun::Cursor::Decode() {
  next_offset_ = offset_;
  run_format::DecodeRecord(run_->arena_, &next_offset_, &view_);
}

void SortedRun::Cursor::Seek(const SortedRun* run, const Key& target) {
  run_ = run;
  valid_ = run != nullptr && run->count_ > 0;
  if (!valid_) return;

  // Binary-search the restart index for the first restart key >= target,
  // then decode forward from the preceding restart (the target may sit
  // mid-block).
  size_t lo = 0;
  size_t hi = run->restarts_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (run->RestartKey(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  offset_ = run->restarts_[lo > 0 ? lo - 1 : 0];
  Decode();
  while (view_.key < target) {
    if (next_offset_ >= run->arena_.size()) {
      valid_ = false;
      return;
    }
    offset_ = next_offset_;
    Decode();
  }
}

void SortedRun::Cursor::Advance() {
  if (!valid_) return;
  if (next_offset_ >= run_->arena_.size()) {
    valid_ = false;
    return;
  }
  offset_ = next_offset_;
  Decode();
}

void SortedRun::Cursor::JumpToRestart(const SortedRun* run,
                                      size_t restart_index) {
  run_ = run;
  offset_ = run->restarts_[restart_index];
  valid_ = true;
  Decode();
}

bool SortedRun::FindSlot(const SlotProbe& probe, uint64_t* version,
                         bool* deleted) const {
  if (!filter_.MayContain(probe.hash)) return false;
  // Binary-search the restarts by slot for the last one at or below the
  // target; the target, if present, sits in that restart's block.
  size_t lo = 0;
  size_t hi = restarts_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRestart(mid, probe.key, probe.id) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;  // Below the run's first slot (or empty).
  Cursor c;
  c.JumpToRestart(this, lo - 1);
  return AdvanceToSlot(&c, probe.key, probe.id, version, deleted);
}

}  // namespace pgrid
}  // namespace unistore
