// The three bench_e2e workloads and their seeded open-loop op streams.
//
// A workload fixes the cluster shape, the dataset loaded during set-up and
// the op mix. The op stream is generated up front from `--seed`: Poisson
// arrivals in virtual time, a class drawn from the mix, a Zipf(0.99)
// target within the class and a uniformly chosen initiator peer. Which
// target is hot is part of the workload (a fixed rank -> item map), so the
// seed changes the sequence and the initiators, not the skew's shape.
#ifndef UNISTORE_BENCH_E2E_WORKLOAD_H_
#define UNISTORE_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.h"
#include "core/datagen.h"

namespace unistore {
namespace bench {
namespace e2e {

/// The eight VQL read classes, then the write class.
enum class OpClass : uint8_t {
  kPoint = 0,       ///< All triples of one OID.
  kExact = 1,       ///< Persons of one age (A#v lookup).
  kRange = 2,       ///< Persons in an age window of kRangeWidth.
  kSubstring = 3,   ///< Titles containing a word.
  kSimilarity = 4,  ///< Conference series within edit distance 1.
  kTop5 = 5,        ///< The kTopN smallest ages from a lower bound.
  kJoin = 6,        ///< Person -> title -> venue, three patterns.
  kSkyline = 7,     ///< The paper's Fig-4 skyline query.
  kInsert = 8,      ///< UniStore::InsertTuple of a fresh contact.
};
constexpr size_t kReadClasses = 8;
constexpr size_t kClasses = 9;

std::string_view OpClassName(OpClass cls);

constexpr int64_t kMinAge = 25;  ///< GenerateBibliography: 25 + [0, 50).
constexpr int64_t kAgeCount = 50;
constexpr int64_t kRangeWidth = 3;
constexpr size_t kTopN = 5;

/// Writes are due at least this long before a read targets their contact.
constexpr sim::SimTime kReadAfterWriteUs = 2 * sim::kMicrosPerSecond;

/// One operation of the stream.
struct Op {
  OpClass cls = OpClass::kPoint;
  sim::SimTime due_us = 0;  ///< Arrival, relative to the end of set-up.
  net::PeerId via = 0;      ///< Initiator.
  /// Class parameter: person index (point, join), age (exact, range,
  /// top-5), word index (substring), series index (similarity), contact
  /// index (insert, contact read).
  size_t target = 0;
  bool contact = false;  ///< Point read of a contact inserted earlier.
  std::string vql;       ///< Empty for inserts.
};

struct MixEntry {
  OpClass cls;
  double share;
  bool contact = false;  ///< kPoint on a contact instead of a person.
};

struct Workload {
  std::string name;
  core::ClusterOptions cluster;
  size_t authors = 500;   ///< Bibliography loaded during set-up.
  double rate_per_s = 0;  ///< Poisson arrival rate in virtual time.
  /// Ops generated per measured second: the stream is seconds x this long,
  /// sized on a 4-core Xeon so that one run measures about `--seconds` of
  /// wall time.
  double ops_per_wall_s = 0;
  /// The traced run records spans for every span_every-th op (a bounded
  /// trace for the long stream); every op is still timed.
  size_t span_every = 1;
  std::vector<MixEntry> mix;
};

/// The named workloads, in a fixed order.
const std::vector<Workload>& Workloads();

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// The dataset a workload loads during set-up (fixed across seeds).
core::Bibliography Dataset(const Workload& workload);

/// The vocabularies the substring and similarity classes target, read off
/// the dataset: title words and conference series, sorted.
std::vector<std::string> TitleWords(const core::Bibliography& data);
std::vector<std::string> SeriesNames(const core::Bibliography& data);

/// The op stream: `count` ops of `workload` from `seed`. Inserts write
/// contact 0, 1, 2, ... in arrival order; a contact read targets a contact
/// whose insert was due at least kReadAfterWriteUs earlier (a person while
/// none is that old yet).
std::vector<Op> GenerateOps(const Workload& workload,
                            const core::Bibliography& data, uint64_t seed,
                            size_t count);

/// The fresh tuples the inserts of a stream write, indexed by contact.
std::vector<triple::Tuple> Contacts(const std::vector<Op>& ops,
                                    uint64_t seed);

}  // namespace e2e
}  // namespace bench
}  // namespace unistore

#endif  // UNISTORE_BENCH_E2E_WORKLOAD_H_
