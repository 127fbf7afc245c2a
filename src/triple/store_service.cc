#include "triple/store_service.h"

#include <set>

namespace unistore {
namespace triple {
namespace {

// Decodes `entries`, keeps the triples `keep` accepts, and dedupes by
// Identity (first occurrence wins) — all in one pass, without the
// intermediate decode/filter vectors of the old DecodeTriples +
// DedupTriples pipeline.
std::vector<Triple> FilterDedupTriples(
    const std::vector<pgrid::Entry>& entries,
    FunctionRef<bool(const Triple&)> keep) {
  std::vector<Triple> out;
  std::set<std::string> seen;
  VisitTriples(entries, [&out, &seen, &keep](Triple&& t) {
    if (!keep(t)) return true;
    if (!seen.insert(t.Identity()).second) return true;
    out.push_back(std::move(t));
    return true;
  });
  return out;
}

}  // namespace

void TripleStore::InsertEntries(std::vector<pgrid::Entry> entries,
                              StatusCallback callback) {
  // One logical write travels as one routed batch: the overlay groups the
  // index entries by next hop (BulkInsert pipeline) instead of issuing a
  // routed insert per entry, and responsible peers ingest their group via
  // LocalStore::BulkLoad.
  peer_->InsertBatch(std::move(entries), std::move(callback));
}

void TripleStore::InsertTriple(const Triple& triple, uint64_t version,
                               StatusCallback callback) {
  InsertEntries(EntriesForTriple(triple, version, /*deleted=*/false),
              std::move(callback));
}

void TripleStore::InsertTuple(const Tuple& tuple, uint64_t version,
                              StatusCallback callback) {
  std::vector<pgrid::Entry> entries;
  for (const Triple& t : Decompose(tuple)) {
    auto triple_entries = EntriesForTriple(t, version, /*deleted=*/false);
    entries.insert(entries.end(),
                   std::make_move_iterator(triple_entries.begin()),
                   std::make_move_iterator(triple_entries.end()));
  }
  InsertEntries(std::move(entries), std::move(callback));
}

void TripleStore::RemoveTriple(const Triple& triple, uint64_t version,
                               StatusCallback callback) {
  InsertEntries(EntriesForTriple(triple, version, /*deleted=*/true),
              std::move(callback));
}

void TripleStore::GetByOid(const std::string& oid,
                           TriplesCallback callback) {
  peer_->Lookup(
      OidKey(oid), pgrid::LookupMode::kExact,
      [oid, callback](Result<pgrid::LookupResult> result) {
        if (!result.ok()) {
          callback(result.status());
          return;
        }
        callback(FilterDedupTriples(
            result->entries,
            [&oid](const Triple& t) { return t.oid == oid; }));
      });
}

void TripleStore::GetByAttrValue(const std::string& attribute,
                                 const Value& value,
                                 TriplesCallback callback) {
  pgrid::KeySuffixes keys;
  std::vector<std::string>& suffixes = keys[AttrValueKey(attribute, value)];
  if (std::string suffix = AttrValueSuffix(attribute, value); !suffix.empty()) {
    suffixes.push_back(std::move(suffix));
  }
  peer_->LookupBatch(
      std::move(keys),
      [attribute, value,
       callback](const Result<pgrid::LookupBatchResult>& result) {
        if (!result.ok()) {
          callback(result.status());
          return;
        }
        callback(FilterDedupTriples(
            result->begin()->second, [&attribute, &value](const Triple& t) {
              return t.attribute == attribute && t.value == value;
            }));
      });
}

void TripleStore::GetByKeys(pgrid::KeySuffixes keys,
                            KeyTriplesCallback callback) {
  auto keep_all = [](const Triple&) { return true; };
  peer_->LookupBatch(std::move(keys), [keep_all, callback](
                               const Result<pgrid::LookupBatchResult>& result) {
    if (!result.ok()) {
      callback(result.status());
      return;
    }
    KeyTriples out;
    for (const auto& [key, entries] : *result) {
      out.emplace(key, FilterDedupTriples(entries, keep_all));
    }
    callback(std::move(out));
  });
}

void TripleStore::RunRange(const pgrid::KeyRange& range,
                           RangeStrategy strategy,
                           std::function<bool(const Triple&)> keep,
                           TriplesCallback callback, uint32_t limit) {
  auto handler = [keep = std::move(keep),
                  callback](Result<pgrid::RangeResult> result) {
    if (!result.ok()) {
      callback(result.status());
      return;
    }
    if (!result->complete) {
      callback(Status::Unavailable(
          "range scan incomplete: a subtree was unreachable"));
      return;
    }
    callback(FilterDedupTriples(result->entries, keep));
  };
  if (strategy == RangeStrategy::kSequential) {
    peer_->RangeScanSeq(range, std::move(handler), limit);
  } else {
    peer_->RangeScanShower(range, std::move(handler));
  }
}

void TripleStore::GetByAttrRangeOrdered(const std::string& attribute,
                                        const Value& lo, const Value& hi,
                                        uint32_t limit,
                                        TriplesCallback callback) {
  RunRange(AttrValueRange(attribute, lo, hi), RangeStrategy::kSequential,
           [attribute, lo, hi](const Triple& t) {
             if (t.attribute != attribute) return false;
             if (!lo.is_null() && t.value < lo) return false;
             if (!hi.is_null() && t.value > hi) return false;
             return true;
           },
           std::move(callback), limit);
}

void TripleStore::ScanAll(RangeStrategy strategy, TriplesCallback callback) {
  RunRange(pgrid::PrefixRange("a#"), strategy,
           [](const Triple&) { return true; }, std::move(callback));
}

void TripleStore::GetByAttrRange(const std::string& attribute,
                                 const Value& lo, const Value& hi,
                                 RangeStrategy strategy,
                                 TriplesCallback callback) {
  RunRange(AttrValueRange(attribute, lo, hi), strategy,
           [attribute, lo, hi](const Triple& t) {
             if (t.attribute != attribute) return false;
             if (!lo.is_null() && t.value < lo) return false;
             if (!hi.is_null() && t.value > hi) return false;
             return true;
           },
           std::move(callback));
}

void TripleStore::GetByAttrPrefix(const std::string& attribute,
                                  const std::string& prefix,
                                  RangeStrategy strategy,
                                  TriplesCallback callback) {
  RunRange(AttrPrefixRange(attribute, prefix), strategy,
           [attribute, prefix](const Triple& t) {
             return t.attribute == attribute && t.value.is_string() &&
                    t.value.AsString().compare(0, prefix.size(), prefix) == 0;
           },
           std::move(callback));
}

void TripleStore::GetByValue(const Value& value, TriplesCallback callback) {
  peer_->Lookup(ValueKey(value), pgrid::LookupMode::kExact,
                [value, callback](Result<pgrid::LookupResult> result) {
                  if (!result.ok()) {
                    callback(result.status());
                    return;
                  }
                  callback(FilterDedupTriples(
                      result->entries,
                      [&value](const Triple& t) { return t.value == value; }));
                });
}

void TripleStore::ScanAttribute(const std::string& attribute,
                                RangeStrategy strategy,
                                TriplesCallback callback) {
  RunRange(AttrRange(attribute), strategy,
           [attribute](const Triple& t) { return t.attribute == attribute; },
           std::move(callback));
}

}  // namespace triple
}  // namespace unistore
