#include "pgrid/entry.h"

#include <algorithm>

namespace unistore {
namespace pgrid {

// Entry encodes through its view, so the "EntryView::Encode is
// byte-identical to Entry::Encode" contract the zero-copy reply path
// relies on holds by construction.
void Entry::Encode(BufferWriter* w) const { EntryView(*this).Encode(w); }

size_t Entry::EncodedSize() const { return EntryView(*this).EncodedSize(); }

Result<Entry> Entry::Decode(BufferReader* r) {
  Entry e;
  UNISTORE_ASSIGN_OR_RETURN(e.key, DecodeKey(r));
  UNISTORE_ASSIGN_OR_RETURN(e.id, r->GetString());
  UNISTORE_ASSIGN_OR_RETURN(e.version, r->GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(e.deleted, r->GetBool());
  return e;
}

void EntryView::Encode(BufferWriter* w) const {
  w->EnsureSpace(EncodedSize());
  EncodeKey(key, w);
  w->PutString(id);
  w->PutVarint(version);
  w->PutBool(deleted);
}

size_t EntryView::EncodedSize() const {
  return EncodedKeySize(key) +
         VarintLength(id.size()) + id.size() +
         VarintLength(version) + 1;
}

Entry EntryView::ToEntry() const {
  Entry e;
  e.key = key;
  e.id = std::string(id);
  e.version = version;
  e.deleted = deleted;
  return e;
}

void EncodeEntries(const std::vector<Entry>& entries, BufferWriter* w) {
  size_t total = VarintLength(entries.size());
  for (const Entry& e : entries) total += e.EncodedSize();
  w->Reserve(total);
  w->PutVarint(entries.size());
  for (const Entry& e : entries) e.Encode(w);
}

Result<std::vector<Entry>> DecodeEntries(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  std::vector<Entry> out;
  // Clamp the pre-reservation: `n` is attacker-controlled wire data and an
  // entry needs at least 4 bytes, so a huge count fails in the loop below
  // with Corruption instead of a giant up-front allocation.
  out.reserve(std::min<uint64_t>(n, 4096));
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(Entry e, Entry::Decode(r));
    out.push_back(std::move(e));
  }
  return out;
}

void EncodeEntryStream(uint64_t count, BufferWriter* w,
                       FunctionRef<void(BufferWriter*)> emit) {
  w->PutVarint(count);
  emit(w);
}

}  // namespace pgrid
}  // namespace unistore
