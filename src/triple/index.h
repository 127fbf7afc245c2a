// The 3-way triple index (paper §2, Figure 2).
//
// "By default, we index each triple on the OID, Ai#vi (the concatenation of
// Ai and vi), and vi. This enables search based on the unique key, queries
// of the form Ai >= vi, and using vi as the key for queries on an arbitrary
// attribute."
//
// Each triple therefore becomes three DHT entries whose keys are the
// order-preserving hashes of tagged index strings. An entry's id is the
// full encoded triple behind a tag, so any index reproduces origin data
// and the id is the only stored copy of the triple.
#ifndef UNISTORE_TRIPLE_INDEX_H_
#define UNISTORE_TRIPLE_INDEX_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "pgrid/ophash.h"
#include "triple/triple.h"

namespace unistore {
namespace triple {

/// Which of the three indexes an entry belongs to.
enum class IndexKind : uint8_t {
  kOid = 0,        ///< hash("o#" + oid)
  kAttrValue = 1,  ///< hash("a#" + attr + "#" + index(value))
  kValue = 2,      ///< hash("v#" + index(value))
};

/// The pre-hash index string of a triple under one index.
std::string IndexString(IndexKind kind, const Triple& triple);

/// The DHT key of a triple under one index.
pgrid::Key IndexKey(IndexKind kind, const Triple& triple);

/// \brief The entry id layout, owned here and nowhere else.
///
/// An index entry's id is its kind tag ("o#", "a#", "v#") followed by the
/// triple's encoding, Triple::Identity(); a q-gram posting's id
/// (PostingId) is "g#", the varint-length-prefixed gram, then the
/// encoding. So an entry's slot is its triple: two distinct triples never
/// share one, however their values round in an index key.
std::string PostingId(std::string_view gram, std::string_view encoded);

/// The body of an entry id of either layout: the bytes after its tag
/// (and, for a posting, after its gram), which are the triple's
/// Triple::Identity(). Two entries carry one triple exactly when their
/// bodies are equal, so readers dedupe on these bytes as they arrived,
/// without decoding or re-encoding. The view aliases `id`. Fails on an id
/// of neither layout; a body that does not decode still comes back.
Result<std::string_view> EntryIdBody(std::string_view id);

/// Decodes the triple an entry id of either layout carries. Fails on any
/// other id (foreign entries sharing the key space).
Result<Triple> DecodeEntryTriple(std::string_view id);

/// The three DHT entries representing `triple` (versioned; tombstones when
/// `deleted`).
std::vector<pgrid::Entry> EntriesForTriple(const Triple& triple,
                                           uint64_t version,
                                           bool deleted = false);

// --- Query-side key builders ------------------------------------------------

/// Exact-match key for all triples of one logical tuple.
pgrid::Key OidKey(const std::string& oid);

/// Exact-match key for triples with a given attribute and value.
pgrid::Key AttrValueKey(const std::string& attribute, const Value& value);

/// The entry-id suffix that tells the triples with `attribute` and
/// `value` apart from the others stored under AttrValueKey(attribute,
/// value): the encoded (attribute, value) tail of Triple::Identity().
/// Empty when the key itself tells them apart, for a string value whose
/// index string fits in pgrid::kCharsPerKey characters, and for a number:
/// a suffix would add request bytes to every exact lookup of one, while
/// the leading hex digits a short attribute leaves in the key already pin
/// a small integer (the low digits of its sortable encoding are zero).
std::string AttrValueSuffix(const std::string& attribute, const Value& value);

/// Covering key range for triples with attribute in [lo, hi] values.
/// Pass Value::Null() bounds to span the whole attribute.
pgrid::KeyRange AttrValueRange(const std::string& attribute, const Value& lo,
                               const Value& hi);

/// Covering key range for every triple of one attribute (any value).
pgrid::KeyRange AttrRange(const std::string& attribute);

/// Covering range for string values of `attribute` starting with `prefix`.
pgrid::KeyRange AttrPrefixRange(const std::string& attribute,
                                const std::string& prefix);

/// Exact-match key in the value index (queries on arbitrary attributes).
pgrid::Key ValueKey(const Value& value);

/// Decodes the triples out of DHT entries, dropping undecodable ones.
/// Entries produced by EntriesForTriple always decode; this tolerates
/// foreign entries sharing the key space.
std::vector<Triple> DecodeTriples(const std::vector<pgrid::Entry>& entries);

}  // namespace triple
}  // namespace unistore

#endif  // UNISTORE_TRIPLE_INDEX_H_
