// Slot-order helpers shared by the scan merge, the compaction merges of
// both storage backends, and the bulk-load dedup pass.
#ifndef UNISTORE_PGRID_RUN_MERGE_H_
#define UNISTORE_PGRID_RUN_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

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
/// occurrence and wins (`SlotCompare <= 0` keeps replacing `best` while
/// scanning cursors in ascending order). Every winning view is handed to
/// `emit`; shadowed older occurrences are skipped. The winning cursor
/// advances LAST — `best` points at its view, which its own Advance
/// overwrites, while the other cursors' advances cannot touch it.
///
/// CursorT needs valid() / view() / Advance(); both SortedRun::Cursor and
/// the disk backend's block cursor qualify, so each backend's compaction
/// runs this exact loop and the merged entry streams stay byte-identical
/// across backends.
template <typename CursorT, typename EmitFn>
void MergeCursorStreams(CursorT* cursors, size_t n, EmitFn emit) {
  while (true) {
    const EntryView* best = nullptr;
    size_t best_i = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!cursors[i].valid()) continue;
      const EntryView& head = cursors[i].view();
      if (best == nullptr || SlotCompare(head, *best) <= 0) {
        best = &head;
        best_i = i;
      }
    }
    if (best == nullptr) return;
    emit(*best);
    for (size_t i = 0; i < n; ++i) {
      if (i == best_i || !cursors[i].valid()) continue;
      if (SameSlot(cursors[i].view(), *best)) cursors[i].Advance();
    }
    cursors[best_i].Advance();
  }
}

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_RUN_MERGE_H_
