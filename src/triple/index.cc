#include "triple/index.h"

namespace unistore {
namespace triple {
namespace {

const char* KindTag(IndexKind kind) {
  switch (kind) {
    case IndexKind::kOid:
      return "o#";
    case IndexKind::kAttrValue:
      return "a#";
    case IndexKind::kValue:
      return "v#";
  }
  return "?#";
}

}  // namespace

std::string PostingId(std::string_view gram, std::string_view encoded) {
  BufferWriter w;
  w.Reserve(2 + VarintLength(gram.size()) + gram.size() + encoded.size());
  w.PutRaw("g#");
  w.PutString(gram);
  w.PutRaw(encoded);
  return w.Release();
}

Result<std::string_view> EntryIdBody(std::string_view id) {
  if (id.size() < 2 || id[1] != '#' ||
      std::string_view("oavg").find(id[0]) == std::string_view::npos) {
    return Status::Corruption("not a triple entry id");
  }
  BufferReader r(id.substr(2));
  if (id[0] == 'g') UNISTORE_RETURN_IF_ERROR(r.GetStringView().status());
  return id.substr(id.size() - r.remaining());
}

Result<Triple> DecodeEntryTriple(std::string_view id) {
  UNISTORE_ASSIGN_OR_RETURN(std::string_view body, EntryIdBody(id));
  BufferReader r(body);
  UNISTORE_ASSIGN_OR_RETURN(Triple t, Triple::Decode(&r));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in entry id");
  return t;
}

std::string IndexString(IndexKind kind, const Triple& triple) {
  switch (kind) {
    case IndexKind::kOid:
      return "o#" + triple.oid;
    case IndexKind::kAttrValue:
      return "a#" + triple.attribute + "#" + triple.value.ToIndexString();
    case IndexKind::kValue:
      return "v#" + triple.value.ToIndexString();
  }
  return "";
}

pgrid::Key IndexKey(IndexKind kind, const Triple& triple) {
  return pgrid::OpHash(IndexString(kind, triple));
}

std::vector<pgrid::Entry> EntriesForTriple(const Triple& triple,
                                           uint64_t version, bool deleted) {
  std::vector<pgrid::Entry> entries;
  entries.reserve(3);
  const std::string encoded = triple.Identity();
  for (IndexKind kind :
       {IndexKind::kOid, IndexKind::kAttrValue, IndexKind::kValue}) {
    pgrid::Entry e;
    e.key = IndexKey(kind, triple);
    e.id = KindTag(kind) + encoded;
    e.version = version;
    e.deleted = deleted;
    entries.push_back(std::move(e));
  }
  return entries;
}

pgrid::Key OidKey(const std::string& oid) {
  return pgrid::OpHash("o#" + oid);
}

pgrid::Key AttrValueKey(const std::string& attribute, const Value& value) {
  return pgrid::OpHash("a#" + attribute + "#" + value.ToIndexString());
}

std::string AttrValueSuffix(const std::string& attribute, const Value& value) {
  // "a#" + attribute + "#s" + the string: the index string AttrValueKey
  // hashes.
  if (!value.is_string() ||
      attribute.size() + value.AsString().size() + 4 <= pgrid::kCharsPerKey) {
    return "";
  }
  BufferWriter w;
  w.PutString(attribute);
  value.Encode(&w);
  return w.Release();
}

pgrid::KeyRange AttrValueRange(const std::string& attribute, const Value& lo,
                               const Value& hi) {
  const std::string base = "a#" + attribute + "#";
  pgrid::KeyRange range;
  range.lo = lo.is_null() ? pgrid::OpHash(base)
                          : pgrid::OpHash(base + lo.ToIndexString());
  range.hi = hi.is_null() ? pgrid::OpHashUpper(base)
                          : pgrid::OpHashUpper(base + hi.ToIndexString());
  return range;
}

pgrid::KeyRange AttrRange(const std::string& attribute) {
  return pgrid::PrefixRange("a#" + attribute + "#");
}

pgrid::KeyRange AttrPrefixRange(const std::string& attribute,
                                const std::string& prefix) {
  // String values are tagged 's' in the index encoding.
  return pgrid::PrefixRange("a#" + attribute + "#s" + prefix);
}

pgrid::Key ValueKey(const Value& value) {
  return pgrid::OpHash("v#" + value.ToIndexString());
}

std::vector<Triple> DecodeTriples(const std::vector<pgrid::Entry>& entries) {
  std::vector<Triple> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    auto t = DecodeEntryTriple(e.id);
    if (t.ok()) out.push_back(std::move(*t));
  }
  return out;
}

}  // namespace triple
}  // namespace unistore
