#include "pgrid/memtable.h"

#include <algorithm>

#include "pgrid/run_merge.h"

namespace unistore {
namespace pgrid {

size_t Memtable::BucketOf(const Arena& a, const SlotProbe& probe) {
  const size_t mask = a.index.size() - 1;
  for (size_t b = probe.hash & mask;; b = (b + 1) & mask) {
    const uint32_t at = a.index[b];
    if (at == kEmpty) return b;
    const Slot& s = a.slots[at];
    if (s.hash == probe.hash && s.key == probe.key &&
        a.IdOf(s) == probe.id) {
      return b;
    }
  }
}

bool Memtable::Find(const SlotProbe& probe, uint64_t* version,
                    bool* deleted) const {
  if (arena_ == nullptr) return false;
  const Arena& a = *arena_;
  const uint32_t at = a.index[BucketOf(a, probe)];
  if (at == kEmpty) return false;
  *version = a.slots[at].version;
  *deleted = a.slots[at].deleted != 0;
  return true;
}

void Memtable::Put(const SlotProbe& probe, uint64_t version, bool deleted) {
  if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
  Arena& a = *arena_;
  // At most half full: a new slot grows the index first.
  if (2 * (a.slots.size() + 1) > a.index.size()) {
    Rehash(&a, std::max<size_t>(16, 2 * a.index.size()));
  }
  const size_t b = BucketOf(a, probe);
  if (a.index[b] != kEmpty) {
    Slot& s = a.slots[a.index[b]];
    s.version = version;
    s.deleted = deleted ? 1 : 0;
    return;
  }
  a.index[b] = static_cast<uint32_t>(a.slots.size());
  Slot s;
  s.key = probe.key;
  s.hash = probe.hash;
  s.version = version;
  s.id_offset = static_cast<uint32_t>(a.ids.size());
  s.id_len = static_cast<uint32_t>(probe.id.size());
  s.deleted = deleted ? 1 : 0;
  Fit(&a, a.slots.size() + 1, a.ids.size() + probe.id.size());
  a.slots.push_back(s);
  a.ids.insert(a.ids.end(), probe.id.begin(), probe.id.end());
}

void Memtable::Reserve(size_t slots, size_t id_bytes) {
  if (slots == 0) return;
  if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
  Arena& a = *arena_;
  Fit(&a, a.slots.size() + slots, a.ids.size() + id_bytes);
}

void Memtable::Fit(Arena* a, size_t slots, size_t id_bytes) {
  if (slots > a->slots.capacity()) {
    const size_t grown = a->slots.capacity() + a->slots.capacity() / 2;
    a->slots.reserve(std::max({size_t{4}, slots, grown}));
    // Scans order the slots without allocating.
    a->order.reserve(a->slots.capacity());
  }
  if (id_bytes > a->ids.capacity()) {
    const size_t grown = a->ids.capacity() + a->ids.capacity() / 2;
    a->ids.reserve(std::max(id_bytes, grown));
  }
  if (2 * slots > a->index.size()) {
    size_t buckets = std::max<size_t>(16, 2 * a->index.size());
    while (buckets < 2 * slots) buckets *= 2;
    Rehash(a, buckets);
  }
}

void Memtable::Rehash(Arena* a, size_t buckets) {
  a->index.assign(buckets, kEmpty);
  const size_t mask = buckets - 1;
  for (size_t i = 0; i < a->slots.size(); ++i) {
    size_t b = a->slots[i].hash & mask;
    while (a->index[b] != kEmpty) b = (b + 1) & mask;
    a->index[b] = static_cast<uint32_t>(i);
  }
}

void Memtable::ExtendOrder() const {
  Arena& a = *arena_;
  const auto less = [&a](uint32_t x, uint32_t y) {
    const Slot& sx = a.slots[x];
    const Slot& sy = a.slots[y];
    const int c = sx.key.Compare(sy.key);
    return c != 0 ? c < 0 : a.IdOf(sx) < a.IdOf(sy);
  };
  // New slots join the order up to kOrderChunk at a time through a stack
  // buffer: the sort's second buffer, then the chunk's copy for the merge.
  uint32_t buffer[kOrderChunk];
  const size_t n = a.slots.size();
  while (a.order.size() < n) {
    const size_t ordered = a.order.size();
    const size_t added = std::min(kOrderChunk, n - ordered);
    a.order.resize(ordered + added);  // Within the capacity Fit reserved.
    uint32_t* order = a.order.data();
    for (size_t i = ordered; i < ordered + added; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    SortByFirstKeyWord(
        order + ordered, buffer, added,
        [&a](uint32_t i) { return a.slots[i].key.word(0); }, less);
    if (ordered == 0) continue;
    // Merges from the back: the write position never passes an unread
    // slot of the built order.
    std::copy(order + ordered, order + ordered + added, buffer);
    size_t old_left = ordered;
    size_t new_left = added;
    for (size_t out = ordered + added; new_left > 0;) {
      if (old_left > 0 && less(buffer[new_left - 1], order[old_left - 1])) {
        order[--out] = order[--old_left];
      } else {
        order[--out] = buffer[--new_left];
      }
    }
  }
}

size_t Memtable::Seek(const Key& lo) const {
  if (arena_ == nullptr) return 0;
  ExtendOrder();
  const Arena& a = *arena_;
  return static_cast<size_t>(
      std::partition_point(
          a.order.begin(), a.order.end(),
          [&a, &lo](uint32_t i) { return a.slots[i].key < lo; }) -
      a.order.begin());
}

void Memtable::ForEach(Sink sink) const {
  ForEachHashed([sink](const EntryView& e, uint64_t) { sink(e); });
}

void Memtable::ForEachHashed(HashedSink sink) const {
  if (arena_ == nullptr) return;
  ExtendOrder();
  const Arena& a = *arena_;
  for (const uint32_t i : a.order) {
    const Slot& s = a.slots[i];
    EntryView v;
    v.key = s.key;
    v.id = a.IdOf(s);
    v.version = s.version;
    v.deleted = s.deleted != 0;
    sink(v, s.hash);
  }
}

size_t Memtable::resident_bytes() const {
  if (arena_ == nullptr) return 0;
  const Arena& a = *arena_;
  return sizeof(Arena) + a.slots.capacity() * sizeof(Slot) +
         a.ids.capacity() +
         (a.index.capacity() + a.order.capacity()) * sizeof(uint32_t);
}

}  // namespace pgrid
}  // namespace unistore
