// The in-bench oracle: expected rows of every read class, computed
// directly from the generated tuples with the bench's own Levenshtein and
// block-nested-loop skyline, never through the program's query path.
#ifndef UNISTORE_BENCH_E2E_ORACLE_H_
#define UNISTORE_BENCH_E2E_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/datagen.h"
#include "exec/binding.h"
#include "workload.h"

namespace unistore {
namespace bench {
namespace e2e {

/// Order-independent digest of a row multiset: equal digests mean equal
/// multisets (up to 64-bit hash collisions).
struct RowsDigest {
  uint64_t sum = 0;
  uint64_t count = 0;

  void Add(const exec::Binding& row);
  bool operator==(const RowsDigest& o) const {
    return sum == o.sum && count == o.count;
  }
  bool operator!=(const RowsDigest& o) const { return !(*this == o); }
};

RowsDigest DigestOf(const std::vector<exec::Binding>& rows);

/// Rows rendered one per line and sorted (mismatch reports).
std::string RenderRows(const std::vector<exec::Binding>& rows);

/// Unit-cost Levenshtein distance.
size_t Levenshtein(std::string_view a, std::string_view b);

/// The rows of a point read: one (?p attribute, ?v value) per attribute.
std::vector<exec::Binding> TupleRows(const triple::Tuple& tuple);

class Oracle {
 public:
  Oracle(const core::Bibliography& data,
         const std::vector<triple::Tuple>& contacts);

  /// The rows the read `op` must return.
  std::vector<exec::Binding> Expected(const Op& op) const;

  /// Digest of Expected(op), memoized per (class, target, contact).
  const RowsDigest& ExpectedDigest(const Op& op);

 private:
  std::vector<exec::Binding> SkylineRows() const;

  const core::Bibliography& data_;
  const std::vector<triple::Tuple>& contacts_;
  std::vector<std::string> words_;
  std::vector<std::string> series_;
  std::map<std::tuple<OpClass, size_t, bool>, RowsDigest> memo_;
};

}  // namespace e2e
}  // namespace bench
}  // namespace unistore

#endif  // UNISTORE_BENCH_E2E_ORACLE_H_
