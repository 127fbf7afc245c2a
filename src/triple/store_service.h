// TripleStore: the triple-level storage service bound to one peer.
//
// This is the paper's "Triple storage layer ... used by P-Grid's
// StorageService to store triple data" (Figure 1): it turns triples into
// 3-way index entries, routes them into the overlay, and answers
// triple-level reads with exact post-filtering (hash collisions are
// resolved against the triples decoded from entry ids).
#ifndef UNISTORE_TRIPLE_STORE_SERVICE_H_
#define UNISTORE_TRIPLE_STORE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pgrid/peer.h"
#include "triple/index.h"
#include "triple/schema.h"
#include "triple/triple.h"

namespace unistore {
namespace triple {

/// How a distributed range read should be executed (the two physical
/// strategies of experiment C4; the optimizer picks via the cost model).
enum class RangeStrategy : uint8_t {
  kSequential = 0,
  kShower = 1,
};

/// \brief Triple-level client operations on top of a pgrid::Peer.
class TripleStore {
 public:
  using StatusCallback = std::function<void(Status)>;
  using TriplesCallback = std::function<void(Result<std::vector<Triple>>)>;
  using KeyTriples = std::map<pgrid::Key, std::vector<Triple>>;
  using KeyTriplesCallback = std::function<void(Result<KeyTriples>)>;

  explicit TripleStore(pgrid::Peer* peer) : peer_(peer) {}

  pgrid::Peer* peer() { return peer_; }

  // --- Writes -------------------------------------------------------------

  /// Routes a batch of prepared entries into the overlay as one
  /// BulkInsert walk (grouped by next hop, BulkLoad-ingested at the
  /// owners); the callback fires once the whole batch is accounted for.
  /// Used by the higher layers to combine triple-index and
  /// q-gram-posting entries in one logical write, and by the bulk-load
  /// path to ship many tuples at once.
  void InsertEntries(std::vector<pgrid::Entry> entries,
                     StatusCallback callback);

  /// Inserts the three index entries of `triple`. The callback fires once
  /// all three inserts complete; the first failure wins.
  void InsertTriple(const Triple& triple, uint64_t version,
                    StatusCallback callback);

  /// Inserts all triples of a tuple.
  void InsertTuple(const Tuple& tuple, uint64_t version,
                   StatusCallback callback);

  /// Deletes a triple by writing tombstones into all three indexes.
  void RemoveTriple(const Triple& triple, uint64_t version,
                    StatusCallback callback);

  // --- Reads (each post-filters exactly) -----------------------------------

  /// All triples of one logical tuple (OID index).
  void GetByOid(const std::string& oid, TriplesCallback callback);

  /// Triples with attribute == `attribute` and value == `value` (A#v
  /// index, exact lookup).
  void GetByAttrValue(const std::string& attribute, const Value& value,
                      TriplesCallback callback);

  /// Triples with the given attribute and lo <= value <= hi (A#v index,
  /// range scan). Null bounds are open ends.
  void GetByAttrRange(const std::string& attribute, const Value& lo,
                      const Value& hi, RangeStrategy strategy,
                      TriplesCallback callback);

  /// Like GetByAttrRange with kSequential, but terminates the walk early
  /// after roughly `limit` index entries: because the A#v partition is
  /// value-ordered, this returns a superset of the `limit` smallest
  /// matching values (ordered top-N pushdown).
  void GetByAttrRangeOrdered(const std::string& attribute, const Value& lo,
                             const Value& hi, uint32_t limit,
                             TriplesCallback callback);

  /// Triples of one attribute whose string value starts with `prefix`
  /// (substring/prefix search support, paper §2).
  void GetByAttrPrefix(const std::string& attribute,
                       const std::string& prefix, RangeStrategy strategy,
                       TriplesCallback callback);

  /// Triples with value == `value` on *any* attribute (value index — "using
  /// vi as the key for queries on an arbitrary attribute").
  void GetByValue(const Value& value, TriplesCallback callback);

  /// The triples stored under each DHT key of `keys` whose entry id ends
  /// with one of the key's suffixes (every triple under a key without
  /// suffixes). Index strings that share their first pgrid::kCharsPerKey
  /// characters share the key, so the caller still picks out the triples
  /// it wants (the executor's probe joins memoize one answer per key and
  /// suffix set). The keys travel as one pgrid::Peer::LookupBatch walk.
  void GetByKeys(pgrid::KeySuffixes keys, KeyTriplesCallback callback);

  /// The union of the triples GetByKeys finds under `keys`, each triple
  /// once, in the order of its Triple::Identity() bytes. One key-set
  /// lookup; the dedupe runs on the entry ids' bodies (EntryIdBody), so
  /// only the distinct triples are decoded.
  void GetUnionByKeys(pgrid::KeySuffixes keys, TriplesCallback callback);

  /// Every triple of an attribute (full attribute scan).
  void ScanAttribute(const std::string& attribute, RangeStrategy strategy,
                     TriplesCallback callback);

  /// Every triple in the store (scan of the whole A#v index — each triple
  /// appears there exactly once).
  void ScanAll(RangeStrategy strategy, TriplesCallback callback);

 private:
  void RunRange(const pgrid::KeyRange& range, RangeStrategy strategy,
                std::function<bool(const Triple&)> keep,
                TriplesCallback callback, uint32_t limit = 0);

  pgrid::Peer* peer_;
};

}  // namespace triple
}  // namespace unistore

#endif  // UNISTORE_TRIPLE_STORE_SERVICE_H_
