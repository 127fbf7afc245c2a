#include "pgrid/sorted_run.h"

#include <algorithm>

#include "pgrid/run_merge.h"

namespace unistore {
namespace pgrid {

using run_format::ReadVarint;

SortedRun SortedRun::Build(std::vector<Entry> entries,
                           size_t restart_interval) {
  size_t estimate = 0;
  for (const Entry& e : entries) estimate += ApproxEntryBytes(e) / 2;
  Builder builder(restart_interval, entries.size(), estimate);
  for (const Entry& e : entries) builder.Add(EntryView(e));
  return builder.Finish();
}

SortedRun::Builder::Builder(size_t restart_interval, size_t expected_entries,
                            size_t expected_bytes) {
  run_.restart_interval_ =
      static_cast<uint32_t>(std::max<size_t>(1, restart_interval));
  run_.arena_.reserve(expected_bytes);
  run_.restarts_.reserve(expected_entries / run_.restart_interval_ + 1);
  prev_key_.reserve(run_format::kMaxCompressedKeyBits);
}

void SortedRun::Builder::Add(const EntryView& e) {
  approx_bytes_ += ApproxEntryBytes(e);
  std::string_view prev_key = prev_key_;
  if (index_ % run_.restart_interval_ == 0) {
    run_.restarts_.push_back(static_cast<uint32_t>(run_.arena_.size()));
    prev_key = {};
  }
  run_format::AppendRecord(&run_.arena_, prev_key, e);
  prev_key_.assign(e.key_bits.data(), e.key_bits.size());
  ++index_;
}

SortedRun SortedRun::Builder::Finish() {
  run_.count_ = index_;
  run_.arena_.shrink_to_fit();
  run_.resident_bytes_ = sizeof(SortedRun) + run_.arena_.size() +
                         run_.restarts_.size() * sizeof(uint32_t);
  return std::move(run_);
}

// Full key bits of the restart record `index` (restart records store the
// whole key, so the view aliases the arena directly).
std::string_view SortedRun::RestartKey(size_t index) const {
  size_t pos = restarts_[index];
  ReadVarint(arena_, &pos);  // shared == 0 at restarts.
  const uint64_t suffix = ReadVarint(arena_, &pos);
  return std::string_view(arena_.data() + pos, suffix);
}

void SortedRun::Cursor::Decode() {
  next_offset_ = offset_;
  run_format::DecodeRecord(run_->arena_, &next_offset_, key_buf_, &view_);
}

void SortedRun::Cursor::Seek(const SortedRun* run, std::string_view lo_bits) {
  run_ = run;
  valid_ = run != nullptr && run->count_ > 0;
  if (!valid_) return;

  // Binary-search the restart index for the first restart key >= lo_bits,
  // then decode forward from the preceding restart (the target may sit
  // mid-block).
  size_t lo = 0;
  size_t hi = run->restarts_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (run->RestartKey(mid) < lo_bits) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  offset_ = run->restarts_[lo > 0 ? lo - 1 : 0];
  Decode();
  while (view_.key_bits < lo_bits) {
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

SortedRun::Prober::Prober(const SortedRun* run) : run_(run) {
  if (run_->count_ > 0) cursor_.Seek(run_, "");
}

bool SortedRun::Prober::FindForward(std::string_view key_bits,
                                    std::string_view id, uint64_t* version,
                                    bool* deleted) {
  if (run_->count_ == 0) return false;

  // Gallop forward over the restarts while the next restart's slot is at
  // or below the target, binary-search the last such restart, and jump
  // there unless the cursor already stands past it. Jumps only ever move
  // the cursor forward.
  const size_t n = run_->restarts_.size();
  if (restart_ + 1 < n &&
      run_->CompareRestart(restart_ + 1, key_bits, id) <= 0) {
    size_t lo = restart_ + 1;  // Slot of restart `lo` <= target.
    size_t step = 1;
    while (lo + step < n &&
           run_->CompareRestart(lo + step, key_bits, id) <= 0) {
      lo += step;
      step <<= 1;
    }
    size_t hi = std::min(n, lo + step);  // Slot of restart `hi` > target.
    while (hi - lo > 1) {
      const size_t mid = lo + (hi - lo) / 2;
      if (run_->CompareRestart(mid, key_bits, id) <= 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    if (run_->restarts_[lo] > cursor_.arena_offset()) {
      restart_ = lo;
      cursor_.JumpToRestart(run_, restart_);
    }
  }
  return AdvanceToSlot(&cursor_, key_bits, id, version, deleted);
}

bool SortedRun::FindSlot(std::string_view key_bits, std::string_view id,
                         uint64_t* version, bool* deleted) const {
  // Binary-search the restarts by slot for the last one at or below the
  // target; the target, if present, sits in that restart's block.
  size_t lo = 0;
  size_t hi = restarts_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRestart(mid, key_bits, id) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;  // Below the run's first slot (or empty).
  Cursor c;
  c.JumpToRestart(this, lo - 1);
  return AdvanceToSlot(&c, key_bits, id, version, deleted);
}

}  // namespace pgrid
}  // namespace unistore
