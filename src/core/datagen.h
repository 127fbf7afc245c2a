// Synthetic datasets for examples, tests and benchmarks.
//
// The paper's running example (Figure 3) is a contacts & publications
// schema: Person(name, age, phone, num_of_pubs, has_published),
// Publication(title, published_in), Conference(confname, series, year).
// GenerateBibliography builds such data with injected typos (exercising
// the edist similarity operators, §2's FILTER edist(?sr,'ICDE')<3).
// Fig2Tuples returns the exact two tuples of Figure 2 for the placement
// experiment.
#ifndef UNISTORE_CORE_DATAGEN_H_
#define UNISTORE_CORE_DATAGEN_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "triple/schema.h"

namespace unistore {
namespace core {

struct BibliographyOptions {
  size_t authors = 50;
  size_t publications_per_author = 3;
  /// Probability that a conference-series string carries a typo.
  double typo_probability = 0.15;
  uint64_t seed = 7;
};

/// A generated bibliography dataset (already decomposed into tuples).
struct Bibliography {
  std::vector<triple::Tuple> persons;
  std::vector<triple::Tuple> publications;
  std::vector<triple::Tuple> conferences;

  /// All tuples concatenated (insertion order: conferences, publications,
  /// persons).
  std::vector<triple::Tuple> AllTuples() const;

  size_t TripleCount() const;
};

/// Generates a Figure-3-style dataset. Attribute names follow the paper:
/// name, age, num_of_pubs, has_published, title, published_in, confname,
/// series, year.
Bibliography GenerateBibliography(const BibliographyOptions& options);

/// The two example tuples of paper Figure 2:
///   (a12, 'Similarity...', 'ICDE 2006 - Workshops', 2006)
///   (v34, 'Progressive...', 'ICDE 2005', 2005)
/// with schema (OID, 'title', 'confname', 'year') — 18 triples total
/// across the three indexes.
std::vector<triple::Tuple> Fig2Tuples();

/// Applies a random edit (substitution/deletion/insertion/transposition)
/// to `s` (utility for typo injection).
std::string InjectTypo(const std::string& s, Rng* rng);

/// \brief Uniform synthetic contact tuples for ingest/bulk-load
/// benchmarks: `count` tuples with name, age and city attributes,
/// deterministic in `seed` (3 triples per tuple — 9 index entries, plus
/// q-gram postings when enabled).
std::vector<triple::Tuple> GenerateContactTuples(size_t count,
                                                 uint64_t seed);

/// One operation of a Zipf-skewed read/write workload (hot-path serving
/// layer benches and tests, DESIGN.md §8).
struct ZipfQuery {
  bool is_read = true;
  size_t rank = 0;     ///< Popularity rank of the target value (0 = hottest).
  std::string value;   ///< Attribute value targeted ("val-<rank>").
};

struct ZipfQueryOptions {
  size_t count = 1000;
  /// Zipf exponent: 0 = uniform, ~0.99 = classic web-cache skew, >1 =
  /// extreme hot spot.
  double theta = 0.99;
  /// Fraction of operations that are reads (the rest are writes against
  /// the same skewed value distribution — they churn the hot partitions).
  double read_ratio = 0.9;
  /// Distinct target values, ranked by popularity.
  size_t value_universe = 256;
  /// Flash-crowd mode: every operation whose index falls in
  /// [flash_crowd_start, flash_crowd_end) (as a fraction of `count`)
  /// targets rank 0 regardless of the Zipf draw — a sudden synchronized
  /// hot spot that exercises replica-group fan-out and admission control.
  bool flash_crowd = false;
  double flash_crowd_start = 0.5;
  double flash_crowd_end = 0.75;
  uint64_t seed = 99;
};

/// Generates a deterministic Zipf-skewed operation sequence. Ranks follow
/// ZipfGenerator(value_universe, theta); values are "val-" + zero-padded
/// rank so lexicographic order matches rank order.
std::vector<ZipfQuery> GenerateZipfQueries(const ZipfQueryOptions& options);

}  // namespace core
}  // namespace unistore

#endif  // UNISTORE_CORE_DATAGEN_H_
