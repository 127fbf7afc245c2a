#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace unistore {

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_ = false;
}

void SampleStats::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleStats::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double SampleStats::min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleStats::max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleStats::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  p = std::clamp(p, 0.0, 100.0);
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

std::string SampleStats::Summary() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean() << " p50=" << Percentile(50)
     << " p99=" << Percentile(99) << " max=" << max();
  return os.str();
}

double SampleStats::Gini() const {
  if (samples_.size() < 2 || sum_ <= 0) return 0.0;
  EnsureSorted();
  const double n = static_cast<double>(samples_.size());
  double weighted = 0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    weighted += static_cast<double>(i + 1) * samples_[i];
  }
  return (2.0 * weighted) / (n * sum_) - (n + 1.0) / n;
}

}  // namespace unistore
