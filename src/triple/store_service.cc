#include "triple/store_service.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/function_ref.h"

namespace unistore {
namespace triple {
namespace {

// An entry's id body (EntryIdBody: its triple's Identity bytes) and the
// entry. Results dedupe on these views, sorted once: no re-encode of a
// decoded triple and no set node per entry.
using BodyOf = std::pair<std::string_view, const pgrid::Entry*>;

void AppendBodies(const std::vector<pgrid::Entry>& entries,
                  std::vector<BodyOf>* out) {
  for (const pgrid::Entry& e : entries) {
    auto body = EntryIdBody(e.id);
    if (body.ok()) out->emplace_back(*body, &e);
  }
}

// Decodes `entries`, keeps the triples `keep` accepts, and dedupes on the
// id body (first occurrence wins). Copies of one triple carry one body,
// so `keep` judges them alike and only first copies are decoded.
std::vector<Triple> FilterDedupTriples(
    const std::vector<pgrid::Entry>& entries,
    FunctionRef<bool(const Triple&)> keep) {
  std::vector<BodyOf> bodies;
  bodies.reserve(entries.size());
  AppendBodies(entries, &bodies);
  // By body, then position: each run of equal bodies starts at its first
  // copy.
  std::sort(bodies.begin(), bodies.end());
  std::vector<bool> repeat(entries.size());
  for (size_t i = 1; i < bodies.size(); ++i) {
    if (bodies[i].first == bodies[i - 1].first) {
      repeat[static_cast<size_t>(bodies[i].second - entries.data())] = true;
    }
  }
  std::vector<Triple> out;
  out.reserve(bodies.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (repeat[i]) continue;
    auto t = DecodeEntryTriple(entries[i].id);
    if (t.ok() && keep(*t)) out.push_back(std::move(*t));
  }
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
      OidKey(oid),
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

void TripleStore::GetUnionByKeys(pgrid::KeySuffixes keys,
                                 TriplesCallback callback) {
  peer_->LookupBatch(std::move(keys), [callback](
                               const Result<pgrid::LookupBatchResult>& result) {
    if (!result.ok()) {
      callback(result.status());
      return;
    }
    size_t total = 0;
    for (const auto& [key, entries] : *result) total += entries.size();
    std::vector<BodyOf> bodies;
    bodies.reserve(total);
    for (const auto& [key, entries] : *result) AppendBodies(entries, &bodies);
    auto by_body = [](const BodyOf& a, const BodyOf& b) {
      return a.first < b.first;
    };
    auto same_body = [](const BodyOf& a, const BodyOf& b) {
      return a.first == b.first;
    };
    std::sort(bodies.begin(), bodies.end(), by_body);
    bodies.erase(std::unique(bodies.begin(), bodies.end(), same_body),
                 bodies.end());
    std::vector<Triple> out;
    out.reserve(bodies.size());
    for (const BodyOf& body : bodies) {
      auto t = DecodeEntryTriple(body.second->id);
      if (t.ok()) out.push_back(std::move(*t));
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
  peer_->Lookup(ValueKey(value),
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
