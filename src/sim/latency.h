// Latency models: how long a message takes between two peers.
//
// The PlanetLab substitution (DESIGN.md §7) hinges on these: the paper's
// end-to-end numbers ("query answer times ... a couple of seconds" on up to
// 400 nodes) are compositions of per-hop WAN delays, so we model per-message
// one-way latency with distributions fitted to typical PlanetLab RTTs.
#ifndef UNISTORE_SIM_LATENCY_H_
#define UNISTORE_SIM_LATENCY_H_

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "sim/scheduler.h"

namespace unistore {
namespace sim {

/// Identifies a simulated node for latency purposes.
using NodeId = uint32_t;

/// \brief Samples the one-way delay of a message from `src` to `dst`.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Returns a one-way delay in virtual microseconds (>= 0).
  virtual SimTime Sample(NodeId src, NodeId dst, Rng* rng) = 0;

  /// A lower bound on message delay (>= 1). The transport clamps every
  /// sampled delay up to this floor, so even a model whose Sample() can
  /// dip below it (e.g. a degenerate zero-latency configuration) never
  /// delivers a message in the microsecond it was sent, at the cost of a
  /// 1 us minimum hop.
  virtual SimTime MinLatency() const { return 1; }
};

/// Fixed delay — unit tests and hop-count benchmarks.
class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(SimTime delay) : delay_(delay) {}
  SimTime Sample(NodeId, NodeId, Rng*) override { return delay_; }
  SimTime MinLatency() const override { return delay_ > 1 ? delay_ : 1; }

 private:
  SimTime delay_;
};

/// Uniform delay in [lo, hi] — a simple LAN/cluster model.
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {}
  SimTime Sample(NodeId, NodeId, Rng* rng) override {
    return rng->NextInt(lo_, hi_);
  }
  SimTime MinLatency() const override { return lo_ > 1 ? lo_ : 1; }

 private:
  SimTime lo_, hi_;
};

/// \brief Wide-area model: per-pair lognormal base delay plus jitter.
///
/// Each (src, dst) pair gets a deterministic base delay drawn from a
/// lognormal distribution (heavy tail — a few far-apart node pairs), plus
/// per-message exponential jitter. Defaults approximate PlanetLab one-way
/// delays: median ≈ 40 ms, mean ≈ 50 ms, long tail to several hundred ms.
class WanLatency : public LatencyModel {
 public:
  struct Options {
    double mu = 10.6;        ///< lognormal mu of base one-way micros (~40ms).
    double sigma = 0.6;      ///< lognormal sigma (tail heaviness).
    double jitter_mean_us = 4000;  ///< mean exponential jitter per message.
    SimTime min_us = 1000;   ///< floor on any delay.
    uint64_t seed = 42;      ///< seeds the per-pair base table.
  };

  WanLatency();
  explicit WanLatency(Options options);

  SimTime Sample(NodeId src, NodeId dst, Rng* rng) override;
  SimTime MinLatency() const override {
    return options_.min_us > 1 ? options_.min_us : 1;
  }

  /// Deterministic base one-way delay of a pair (no jitter).
  SimTime BaseDelay(NodeId src, NodeId dst) const;

 private:
  Options options_;
};

}  // namespace sim
}  // namespace unistore

#endif  // UNISTORE_SIM_LATENCY_H_
