// The mutable head of a LocalStore: recent slots in arrival order, found
// through a hash index and put in slot order only when a scan or a flush
// asks for it (DESIGN.md §6).
#ifndef UNISTORE_PGRID_MEMTABLE_H_
#define UNISTORE_PGRID_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "pgrid/slot_filter.h"
#include "pgrid/sorted_run.h"

namespace unistore {
namespace pgrid {

/// \brief Each (key, id) slot once, at its newest version.
///
/// An append arena: a slot array in arrival order whose ids live back to
/// back in one byte buffer, and an open-addressing index on the slot's
/// SlotHash (linear probing, at most half full) that finds a slot in one
/// probe. Put costs a probe and an id copy; an update rewrites its slot
/// in place. No slot is a heap node of its own.
///
/// The slot order is an array of slot indices, extended lazily: the
/// first Seek or ForEach after new slots sorts just those (by the
/// first-key-word radix of SortByFirstKeyWord) and merges them into the
/// order already built. The order array is reserved as the slot array
/// grows, and the sort and the merge work through a stack buffer, so
/// ordering during a scan never allocates.
///
/// As a RunInput the memtable hands its slots to a run in slot order,
/// each with the hash its index holds.
class Memtable final : public RunInput {
 public:
  Memtable() = default;

  size_t size() const override {
    return arena_ != nullptr ? arena_->slots.size() : 0;
  }
  bool empty() const { return size() == 0; }
  void ForEach(Sink sink) const override;
  void ForEachHashed(HashedSink sink) const override;

  /// Version and tombstone flag of the probed slot; false when the
  /// memtable does not hold it.
  bool Find(const SlotProbe& probe, uint64_t* version, bool* deleted) const;

  /// Stores the probed slot at `version`: overwrites it when held, else
  /// appends it.
  void Put(const SlotProbe& probe, uint64_t version, bool deleted);

  /// Room for `slots` more slots with `id_bytes` more id bytes, so the
  /// Puts of a batch grow each buffer at most once.
  void Reserve(size_t slots, size_t id_bytes);

  /// Orders the slots if new ones arrived, and returns the position in
  /// slot order of the first slot with key >= `lo`. Positions stay valid
  /// until the next Put of a new slot.
  size_t Seek(const Key& lo) const;

  /// The slot at `position` in slot order, as of the last Seek.
  EntryView ViewAt(size_t position) const {
    const Slot& s = arena_->slots[arena_->order[position]];
    EntryView v;
    v.key = s.key;
    v.id = arena_->IdOf(s);
    v.version = s.version;
    v.deleted = s.deleted != 0;
    return v;
  }

  /// Drops every slot and releases every buffer: a store whose memtable
  /// has flushed holds none until its next write, and a filling memtable
  /// grows its buffers by half.
  void Clear() { arena_.reset(); }

  /// Bytes the memtable holds at capacity: slot array, id bytes, index
  /// and order (O(1)).
  size_t resident_bytes() const;

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  // Slots ExtendOrder sorts and merges per step (its stack buffer).
  static constexpr size_t kOrderChunk = 256;

  struct Slot {
    Key key;
    uint64_t hash;  // SlotHash(key, id).
    uint64_t version;
    uint32_t id_offset;  // Into Arena::ids.
    uint32_t id_len : 31;
    uint32_t deleted : 1;
  };

  // The buffers, allocated by the first Put and released by Clear, so an
  // empty memtable is one pointer (most stores of a read-only cluster
  // hold no slot in theirs).
  struct Arena {
    std::string_view IdOf(const Slot& s) const {
      return std::string_view(ids.data() + s.id_offset, s.id_len);
    }

    // slots and ids grow by half, not by doubling: ids take most of a
    // memtable's bytes, and on write_mix (seed 1) doubling buffers put
    // 0.3 MB more on the heap peak. Write reserves its whole batch: a
    // memtable grown put by put leaves a trail of freed smaller buffers,
    // which raised lookup_1024 peak RSS (DESIGN.md §6).
    std::vector<Slot> slots;      // Arrival order.
    std::vector<char> ids;        // The slots' ids, back to back.
    std::vector<uint32_t> index;  // Power-of-two buckets; kEmpty or slot.
    // The first order.size() slots in slot order; reserved to
    // slots.capacity().
    std::vector<uint32_t> order;
  };

  // Index bucket holding the probed slot, or the empty bucket that ends
  // its probe sequence. Requires a non-empty index.
  static size_t BucketOf(const Arena& a, const SlotProbe& probe);
  // Capacity for `slots` slots holding `id_bytes` id bytes, with the
  // index at most half full; a buffer that grows grows by at least half.
  static void Fit(Arena* a, size_t slots, size_t id_bytes);
  // Resizes the index to `buckets` (a power of two) and re-enters every
  // slot by its stored hash.
  static void Rehash(Arena* a, size_t buckets);
  // Sorts the slots that arrived since the last call into the order.
  void ExtendOrder() const;

  std::unique_ptr<Arena> arena_;  // Null while empty.
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_MEMTABLE_H_
