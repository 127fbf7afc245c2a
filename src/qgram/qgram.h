// q-gram index for distributed string similarity (paper §2, [Karnstedt
// NetDB'06]: "a q-gram index (q-gram: a substring of fixed length q) in
// order to be able to process string similarity efficiently").
//
// A string value is decomposed into padded q-grams; each distinct gram of
// each indexed triple becomes a DHT posting under hash("g#"+attr+"#"+gram).
// A similarity selection edist(value, c) <= k then:
//  1. looks up the postings of c's grams (|c|+q-1 parallel DHT lookups),
//  2. applies the count filter: a true match shares at least
//     max(|c|,|v|) + q - 1 - k*q grams,
//  3. verifies surviving candidates with a banded edit distance.
// This replaces the naive baseline — scanning the whole attribute
// partition — with O(|c|) targeted lookups (experiment C5).
// A substring predicate `v CONTAINS w` is the zero-edit case: every gram
// inside w occurs in every match, so one posting lookup finds them all
// (SelectGrams with budget 1, interior grams only; DESIGN.md §14).
#ifndef UNISTORE_QGRAM_QGRAM_H_
#define UNISTORE_QGRAM_QGRAM_H_

#include <string>
#include <string_view>
#include <vector>

#include "pgrid/entry.h"
#include "pgrid/key.h"
#include "triple/triple.h"

namespace unistore {
namespace qgram {

/// Default gram length (q = 3 is the classic choice for short text).
inline constexpr size_t kDefaultQ = 3;

/// Padding character framing the string (cannot collide with printable
/// data).
inline constexpr char kPadChar = '\x02';

/// All positional q-grams of `s` with (q-1)-fold padding on both sides;
/// the result has exactly |s| + q - 1 grams (with multiplicity).
std::vector<std::string> ExtractQGrams(std::string_view s, size_t q);

/// Distinct grams of `s` (for index construction).
std::vector<std::string> DistinctQGrams(std::string_view s, size_t q);

/// Size of the multiset intersection of two gram lists.
size_t GramOverlap(std::vector<std::string> a, std::vector<std::string> b);

/// The count-filter lower bound on shared grams for edit distance <= k
/// between strings of the given lengths. May be <= 0, in which case the
/// filter is vacuous and candidates cannot be pruned.
int64_t CountFilterThreshold(size_t len_a, size_t len_b, size_t q, size_t k);

/// The grams a posting lookup for `target` fetches: distinct grams taken
/// nearest the middle position first (interior grams before padding
/// grams, which are the largest buckets) until their positional
/// multiplicities reach `budget`. An edit-distance-k selection needs
/// budget k*q+1 (pigeonhole: k edits destroy at most k*q grams), a
/// substring budget 1 with `interior_only` (a gram that overlaps the
/// padding is not implied). Empty when the grams in play cannot reach
/// the budget: the lookup cannot enumerate the matches then.
std::vector<std::string> SelectGrams(std::string_view target, size_t q,
                                     size_t budget, bool interior_only);

/// Pre-hash index string of one (attribute, gram) posting bucket.
std::string QGramIndexString(const std::string& attribute,
                             const std::string& gram);

/// DHT key of a posting bucket.
pgrid::Key QGramKey(const std::string& attribute, const std::string& gram);

/// True iff `attribute`'s posting keys tell its q-grams apart. A key keeps
/// only pgrid::kCharsPerKey characters of the index string, so past that
/// every gram would share one key and a posting lookup would fetch all of
/// the attribute's postings: such an attribute gets none, and its
/// similarity and substring selections scan.
bool GramsHaveOwnKeys(const std::string& attribute, size_t q);

/// The posting entries for a triple with a string value: one per distinct
/// gram, its id triple::PostingId. Non-string values, and attributes that
/// fail GramsHaveOwnKeys (no plan reads their postings), produce none.
std::vector<pgrid::Entry> EntriesForTripleQGrams(const triple::Triple& t,
                                                 size_t q, uint64_t version,
                                                 bool deleted = false);

}  // namespace qgram
}  // namespace unistore

#endif  // UNISTORE_QGRAM_QGRAM_H_
