// Slot-order helpers shared by the scan merge, the compaction merges of
// both storage backends, the batch sort of Write and BulkLoad, and the
// memtable's slot order.
#ifndef UNISTORE_PGRID_RUN_MERGE_H_
#define UNISTORE_PGRID_RUN_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "pgrid/entry.h"

namespace unistore {
namespace pgrid {

/// <0 / 0 / >0 over slot order — (key, id) — of two entry views.
inline int SlotCompare(const EntryView& a, const EntryView& b) {
  const int c = a.key.Compare(b.key);
  if (c != 0) return c;
  return a.id.compare(b.id);
}

inline bool SameSlot(const EntryView& a, const EntryView& b) {
  return a.key == b.key && a.id == b.id;
}

/// \brief Advances `cursor` to the first slot >= (key, id).
///
/// True, with the slot's version and tombstone flag, when that slot is
/// the target. The probes of both backends position a cursor at the last
/// chain start at or below the target, so this decodes within one block.
template <typename CursorT>
bool AdvanceToSlot(CursorT* cursor, const Key& key, std::string_view id,
                   uint64_t* version, bool* deleted) {
  for (; cursor->valid(); cursor->Advance()) {
    const EntryView& v = cursor->view();
    int c = v.key.Compare(key);
    if (c == 0) c = v.id.compare(id);
    if (c < 0) continue;
    if (c > 0) return false;
    *version = v.version;
    *deleted = v.deleted;
    return true;
  }
  return false;
}

/// \brief K-way merge of run cursors in slot order, newest-wins.
///
/// `cursors[0..n)` must be positioned at their first entry and ordered
/// oldest first: on a slot tie the highest cursor index is the newest
/// occurrence and wins, and the older occurrences are skipped. Every
/// winning view is handed to `emit`.
///
/// One pass over the heads picks the winner and the runner-up (the
/// smallest head of the other cursors). The winner then emits for as long
/// as its head stays strictly below the runner-up's, which no other
/// cursor can undercut while only the winner moves: a merge of one large
/// run with a few small ones is mostly such streaks, at one compare per
/// entry. A runner-up on the winner's own slot is a shadowed occurrence;
/// those cursors advance and the runner-up is picked again.
///
/// CursorT needs valid() / view() / Advance(); both SortedRun::Cursor and
/// the disk backend's block cursor qualify, so each backend's compaction
/// runs this exact loop and the merged entry streams stay byte-identical
/// across backends.
template <typename CursorT, typename EmitFn>
void MergeCursorStreams(CursorT* cursors, size_t n, EmitFn emit) {
  constexpr size_t kNone = ~size_t{0};
  while (true) {
    size_t best = kNone;
    size_t second = kNone;
    for (size_t i = 0; i < n; ++i) {
      if (!cursors[i].valid()) continue;
      const EntryView& head = cursors[i].view();
      if (best == kNone || SlotCompare(head, cursors[best].view()) <= 0) {
        second = best;
        best = i;
      } else if (second == kNone ||
                 SlotCompare(head, cursors[second].view()) < 0) {
        second = i;
      }
    }
    if (best == kNone) return;
    CursorT& winner = cursors[best];
    if (second != kNone && SameSlot(cursors[second].view(), winner.view())) {
      second = kNone;
      for (size_t i = 0; i < n; ++i) {
        if (i == best || !cursors[i].valid()) continue;
        if (SameSlot(cursors[i].view(), winner.view())) cursors[i].Advance();
        if (!cursors[i].valid()) continue;
        if (second == kNone ||
            SlotCompare(cursors[i].view(), cursors[second].view()) < 0) {
          second = i;
        }
      }
    }
    // `winner.view()` is overwritten by the winner's own Advance only.
    do {
      emit(winner.view());
      winner.Advance();
    } while (winner.valid() &&
             (second == kNone ||
              SlotCompare(winner.view(), cursors[second].view()) < 0));
  }
}

/// \brief Sorts `records[0, n)` into slot order through each record's
/// first key word.
///
/// A stable LSD radix sort on `word(record)`, one byte per pass over only
/// the bytes that vary across the records (the keys a peer stores share
/// its path), then `less` orders each group of equal words. `scratch`
/// holds n records. `less` must be a strict total order on the records.
template <typename R, typename WordFn, typename LessFn>
void SortByFirstKeyWord(R* records, R* scratch, size_t n, WordFn word,
                        LessFn less) {
  if (n < 2) return;
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = word(records[i]);
    any |= w;
    all &= w;
  }
  // A byte every word shares sorts nothing: its counter row is neither
  // zeroed nor filled.
  const uint64_t varying = any ^ all;
  size_t digits[8];
  size_t n_digits = 0;
  for (size_t d = 0; d < 8; ++d) {
    if (((varying >> (8 * d)) & 0xFF) != 0) digits[n_digits++] = d;
  }
  size_t counts[8][256];
  for (size_t k = 0; k < n_digits; ++k) {
    std::memset(counts[digits[k]], 0, sizeof(counts[0]));
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = word(records[i]);
    for (size_t k = 0; k < n_digits; ++k) {
      const size_t d = digits[k];
      ++counts[d][(w >> (8 * d)) & 0xFF];
    }
  }
  R* from = records;
  R* to = scratch;
  for (size_t k = 0; k < n_digits; ++k) {
    const size_t d = digits[k];
    size_t* count = counts[d];
    size_t at = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = at;
      at += c;
    }
    for (size_t i = 0; i < n; ++i) {
      to[count[(word(from[i]) >> (8 * d)) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != records) std::copy(from, from + n, records);
  for (size_t lo = 0; lo < n;) {
    const uint64_t w = word(records[lo]);
    size_t hi = lo + 1;
    while (hi < n && word(records[hi]) == w) ++hi;
    if (hi - lo > 1) std::sort(records + lo, records + hi, less);
    lo = hi;
  }
}

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_RUN_MERGE_H_
