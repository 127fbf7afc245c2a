// Summary statistics of scalar samples, used by the benchmarks.
#ifndef UNISTORE_COMMON_HISTOGRAM_H_
#define UNISTORE_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace unistore {

/// \brief Streaming summary of a scalar sample (count/mean/min/max/
/// percentiles).
///
/// Keeps all samples; fine for simulation-scale data volumes, and exact
/// percentiles are worth the memory for benchmark reporting.
class SampleStats {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  double sum() const { return sum_; }

  /// Exact percentile by nearest-rank; `p` in [0, 100].
  double Percentile(double p) const;

  /// "n=  mean=  p50=  p99=  max=" one-liner for reports.
  std::string Summary() const;

  /// Gini coefficient of the sample (0 = perfectly even, →1 = concentrated).
  /// Used by the load-balancing experiment (claim C3).
  double Gini() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  double sum_ = 0;

  void EnsureSorted() const;
};

}  // namespace unistore

#endif  // UNISTORE_COMMON_HISTOGRAM_H_
