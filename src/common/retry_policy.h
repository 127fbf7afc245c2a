// Unified retry discipline: capped exponential backoff with deterministic
// jitter, per-protocol attempt budgets, and an optional overall deadline.
//
// Every protocol of the peer that retries (routed requests, bulk insert,
// range scans, replica repair) expresses its budget as a RetryPolicy and
// tracks one operation's spend in a RetryBudget. A policy sets only the
// attempt budget and an optional deadline; the backoff schedule is one
// constant for all of them. Spends are counted per policy name in
// TrafficStats.retries_by_policy via Transport::CountRetry, so a chaos run
// can attribute every retry to the protocol that paid for it.
//
// Determinism: backoff is a pure function of the attempt number; jitter is
// drawn from the caller's own Rng stream. Nothing here reads a wall clock
// — callers pass virtual time in.
#ifndef UNISTORE_COMMON_RETRY_POLICY_H_
#define UNISTORE_COMMON_RETRY_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace unistore {

/// The backoff before retry k (1-based), in virtual microseconds:
/// min(kRetryBackoffBaseUs * 2^(k-1), kRetryBackoffCapUs), plus uniform
/// jitter in [0, kRetryJitterUs] — 20, 40, 80, 160, 200, 200 ... ms.
inline constexpr uint64_t kRetryBackoffBaseUs = 20'000;
inline constexpr uint64_t kRetryBackoffCapUs = 200'000;
inline constexpr uint64_t kRetryJitterUs = 5'000;

/// Per-protocol retry budget. Times are virtual microseconds.
struct RetryPolicy {
  /// Stable counter key (TrafficStats.retries_by_policy).
  std::string_view name = "retry";

  /// Retries allowed after the first attempt.
  int max_retries = 2;

  /// Total budget measured from the operation's start; once exceeded no
  /// further retry is granted regardless of attempts left. 0 = unbounded.
  uint64_t deadline_us = 0;
};

/// \brief One operation's retry state against a RetryPolicy.
///
/// The deadline is anchored when the budget is created (operation start)
/// and — unlike a per-attempt counter — survives failovers: a flapping
/// replica set cannot reset it by switching donors.
class RetryBudget {
 public:
  RetryBudget() = default;
  RetryBudget(const RetryPolicy& policy, int64_t now_us)
      : policy_(policy),
        deadline_at_(policy.deadline_us == 0
                         ? 0
                         : now_us + static_cast<int64_t>(policy.deadline_us)) {
  }

  /// True when no further retry is allowed at `now_us` (attempts spent or
  /// deadline passed).
  bool ExhaustedAt(int64_t now_us) const {
    if (used_ >= policy_.max_retries) return true;
    return deadline_at_ != 0 && now_us >= deadline_at_;
  }

  /// Consumes one retry if allowed at `now_us`; returns whether it was
  /// granted. Callers count granted spends via Transport::CountRetry.
  bool Spend(int64_t now_us) {
    if (ExhaustedAt(now_us)) return false;
    used_++;
    return true;
  }

  /// Restores the attempt budget while keeping the deadline anchored at
  /// the operation's start (transfer resume: per-chunk retries reset on
  /// progress, the overall deadline never does).
  void ResetAttempts() { used_ = 0; }

  /// True once the overall deadline passed — distinguishes "give up
  /// entirely" from "attempts spent, fail over and try elsewhere".
  bool DeadlinePassed(int64_t now_us) const {
    return deadline_at_ != 0 && now_us >= deadline_at_;
  }

  /// Backoff before the retry just granted: the capped exponential
  /// schedule on the attempt number plus jitter from `rng` (the caller's
  /// deterministic stream; pass nullptr to skip jitter).
  int64_t NextDelayUs(Rng* rng) const {
    uint64_t d = kRetryBackoffBaseUs;
    for (int i = 1; i < used_ && d < kRetryBackoffCapUs; ++i) d *= 2;
    d = std::min(d, kRetryBackoffCapUs);
    if (rng != nullptr) d += rng->NextBounded(kRetryJitterUs + 1);
    return static_cast<int64_t>(d);
  }

  int used() const { return used_; }
  int remaining() const { return std::max(0, policy_.max_retries - used_); }
  int64_t deadline_at() const { return deadline_at_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  int64_t deadline_at_ = 0;  ///< Absolute; 0 = no deadline.
  int used_ = 0;
};

}  // namespace unistore

#endif  // UNISTORE_COMMON_RETRY_POLICY_H_
