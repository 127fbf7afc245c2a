// Deterministic pseudo-random number generation.
//
// Every stochastic component of UniStore (latency sampling, exchange
// protocol, workload generation, churn) draws from an explicitly seeded Rng
// so that simulations are bit-for-bit reproducible.
#ifndef UNISTORE_COMMON_RNG_H_
#define UNISTORE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unistore {

/// \brief xoshiro256**-based deterministic PRNG.
///
/// Not cryptographically secure; chosen for speed, quality and tiny state.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Normally distributed value (Box–Muller).
  double NextGaussian(double mean, double stddev);

  /// Log-normally distributed value with the given parameters of the
  /// underlying normal distribution.
  double NextLogNormal(double mu, double sigma);

  /// Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  /// Derives an independent generator (e.g. one per peer) from this one.
  Rng Fork();

  /// Mixes a (seed, stream) pair into the seed of an independent stream —
  /// a splitmix-style finalizer, so stream i of seed s shares nothing with
  /// stream j or with any stream of another seed. Used to give every peer
  /// its own transport RNG: draws become order-independent across peers,
  /// which makes runs robust to reordering.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

 private:
  uint64_t state_[4];
};

/// \brief Zipf-distributed integer sampler over {0, ..., n-1}.
///
/// Rank r is drawn with probability proportional to 1 / (r+1)^s. Used to
/// generate the skewed key distributions of the load-balancing experiment
/// (paper claim C3: "nearly arbitrary data skews").
class ZipfGenerator {
 public:
  /// \param n    population size (> 0)
  /// \param s    skew parameter; s = 0 degenerates to uniform.
  ZipfGenerator(size_t n, double s);

  /// Samples a rank in [0, n).
  size_t Sample(Rng* rng) const;

  size_t n() const { return cdf_.size(); }
  double s() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;  // Cumulative probabilities, cdf_.back() == 1.
};

}  // namespace unistore

#endif  // UNISTORE_COMMON_RNG_H_
