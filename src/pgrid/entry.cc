#include "pgrid/entry.h"

#include <algorithm>
#include <cstring>

namespace unistore {
namespace pgrid {

// Entry encodes through its view, so the "EntryView::Encode is
// byte-identical to Entry::Encode" contract that repair chunks, encoded
// from scan views and decoded with Entry::Decode, rely on holds by
// construction.
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

namespace {

/// Bytes `a` and `b` share at their start.
size_t SharedPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  return static_cast<size_t>(
      std::mismatch(a.begin(), a.begin() + n, b.begin()).first - a.begin());
}

}  // namespace

void EntryListWriter::Write(BufferWriter* w, bool keyless, Fill fill) {
  EntryListWriter list(w, keyless);
  fill(&list);
  w->PatchVarint(list.count_at_, list.count_);
}

EntryListWriter::EntryListWriter(BufferWriter* w, bool keyless)
    : w_(w), keyless_(keyless), count_at_(w->size()) {
  w_->PutU8(0);
}

void EntryListWriter::Add(const EntryView& e) {
  // A bound: the header costs one byte more than a short key's bit length
  // and shared_id at most as many as the id's length.
  w_->EnsureSpace(e.EncodedSize() + 1 + VarintLength(e.id.size()));
  if (!keyless_) {
    unsigned char buf[Key::kMaxBytes];
    const std::string_view packed = e.key.Packed(buf);
    const size_t shared = e.key.CommonPrefixLength(prev_key_) / 8;
    const bool full = e.key.size() == kKeyBits;
    w_->PutVarint(shared << 1 | (full ? 1 : 0));
    if (!full) w_->PutVarint(e.key.size());
    w_->PutRaw(packed.substr(shared));
    prev_key_ = e.key;
  }
  const size_t shared_id = SharedPrefix(prev_id_, e.id);
  w_->PutVarint(shared_id);
  w_->PutString(e.id.substr(shared_id));
  w_->PutVarint(e.version);
  w_->PutBool(e.deleted);
  prev_id_.assign(e.id);
  ++count_;
}

Result<Entry> DecodeListedEntry(BufferReader* r, const Entry* prev,
                                bool keyless) {
  Entry e;
  if (!keyless) {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t header, r->GetVarint());
    const uint64_t shared = header >> 1;
    uint64_t bit_len = kKeyBits;
    if ((header & 1) == 0) {
      UNISTORE_ASSIGN_OR_RETURN(bit_len, r->GetVarint());
      // A full-width key says so in its header.
      if (bit_len >= kKeyBits) {
        return Status::Corruption("listed key of ", bit_len,
                                  " bits without the full-width flag");
      }
    }
    const size_t prev_bits = prev == nullptr ? 0 : prev->key.size();
    if (shared > prev_bits / 8 || shared > bit_len / 8) {
      return Status::Corruption("key shares ", shared, " bytes with a ",
                                prev_bits, "-bit previous key as a ",
                                bit_len, "-bit key");
    }
    unsigned char buf[Key::kMaxBytes] = {};
    if (prev != nullptr) prev->key.ToBytes(buf);
    const size_t bytes = Key::ByteLength(bit_len);
    UNISTORE_ASSIGN_OR_RETURN(std::string_view rest, r->GetRaw(bytes - shared));
    std::memcpy(buf + shared, rest.data(), rest.size());
    if (bytes > 0 && !Key::PaddingIsZero(bit_len, buf[bytes - 1])) {
      return Status::Corruption("key padding bits are not zero");
    }
    e.key = Key::FromBytes(buf, bit_len);
  }
  const std::string_view prev_id =
      prev == nullptr ? std::string_view() : std::string_view(prev->id);
  UNISTORE_ASSIGN_OR_RETURN(uint64_t shared_id, r->GetVarint());
  if (shared_id > prev_id.size()) {
    return Status::Corruption("id shares ", shared_id, " bytes with a ",
                              prev_id.size(), "-byte previous id");
  }
  UNISTORE_ASSIGN_OR_RETURN(std::string_view rest, r->GetStringView());
  e.id.reserve(shared_id + rest.size());
  e.id.append(prev_id.data(), shared_id);
  e.id.append(rest);
  UNISTORE_ASSIGN_OR_RETURN(e.version, r->GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(e.deleted, r->GetBool());
  return e;
}

void EncodeEntries(const std::vector<Entry>& entries, BufferWriter* w,
                   bool keyless) {
  size_t total = VarintLength(entries.size());
  for (const Entry& e : entries) total += e.EncodedSize();
  w->Reserve(total);
  EntryListWriter::Write(w, keyless, [&entries](EntryListWriter* list) {
    for (const Entry& e : entries) list->Add(e);
  });
}

Result<std::vector<Entry>> DecodeEntries(BufferReader* r, bool keyless) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  std::vector<Entry> out;
  // Clamp the pre-reservation: `n` is attacker-controlled wire data and an
  // entry needs at least 4 bytes, so a huge count fails in the loop below
  // with Corruption instead of a giant up-front allocation.
  out.reserve(std::min<uint64_t>(n, 4096));
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(
        Entry e,
        DecodeListedEntry(r, out.empty() ? nullptr : &out.back(), keyless));
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace pgrid
}  // namespace unistore
