#include "common/retry_policy.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace unistore {
namespace {

TEST(RetryBudgetTest, SpendsUpToMaxRetries) {
  RetryPolicy policy;
  policy.max_retries = 3;
  RetryBudget budget(policy, /*now_us=*/0);
  EXPECT_TRUE(budget.Spend(0));
  EXPECT_TRUE(budget.Spend(0));
  EXPECT_TRUE(budget.Spend(0));
  EXPECT_FALSE(budget.Spend(0));
  EXPECT_EQ(budget.used(), 3);
  EXPECT_EQ(budget.remaining(), 0);
}

TEST(RetryBudgetTest, DeadlineIsAnchoredAtCreation) {
  RetryPolicy policy;
  policy.max_retries = 100;
  policy.deadline_us = 10000;
  RetryBudget budget(policy, /*now_us=*/5000);
  EXPECT_EQ(budget.deadline_at(), 15000);
  EXPECT_TRUE(budget.Spend(14999));
  EXPECT_FALSE(budget.Spend(15000));
  EXPECT_TRUE(budget.DeadlinePassed(15000));
  EXPECT_FALSE(budget.DeadlinePassed(14999));
}

TEST(RetryBudgetTest, ResetAttemptsKeepsDeadline) {
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.deadline_us = 10000;
  RetryBudget budget(policy, 0);
  EXPECT_TRUE(budget.Spend(0));
  EXPECT_FALSE(budget.Spend(0));
  budget.ResetAttempts();
  // Attempts restored, but the operation-start deadline still binds.
  EXPECT_TRUE(budget.Spend(0));
  budget.ResetAttempts();
  EXPECT_FALSE(budget.Spend(10000));
  EXPECT_EQ(budget.deadline_at(), 10000);
}

TEST(RetryBudgetTest, BackoffGrowsExponentiallyAndCaps) {
  // The one schedule of every policy: 20, 40, 80, 160 ms, then the
  // 200 ms cap.
  RetryPolicy policy;
  policy.max_retries = 10;
  RetryBudget budget(policy, 0);
  const int64_t kMs = 1000;
  for (int64_t want : {20 * kMs, 40 * kMs, 80 * kMs, 160 * kMs, 200 * kMs,
                       200 * kMs}) {
    ASSERT_TRUE(budget.Spend(0));
    EXPECT_EQ(budget.NextDelayUs(nullptr), want) << "retry " << budget.used();
  }
}

TEST(RetryBudgetTest, JitterIsBoundedAndDeterministic) {
  // Each delay adds one draw in [0, 5 ms] from the caller's stream: the
  // same seed gives the same delays, and the draws are exactly the
  // stream's NextBounded(5 ms + 1).
  RetryPolicy policy;
  policy.max_retries = 50;
  RetryBudget plain(policy, 0);
  RetryBudget jittered(policy, 0);
  Rng rng(99);
  Rng twin(99);
  for (int i = 0; i < 20; ++i) {
    plain.Spend(0);
    jittered.Spend(0);
    const int64_t base = plain.NextDelayUs(nullptr);
    const int64_t delay = jittered.NextDelayUs(&rng);
    EXPECT_GE(delay - base, 0);
    EXPECT_LE(delay - base, 5000);
    EXPECT_EQ(delay - base,
              static_cast<int64_t>(twin.NextBounded(kRetryJitterUs + 1)));
  }
}

TEST(RetryBudgetTest, DefaultConstructedBudgetIsUnbounded) {
  RetryBudget budget;
  // Default policy: 2 retries, no deadline.
  EXPECT_TRUE(budget.Spend(1 << 30));
  EXPECT_TRUE(budget.Spend(1 << 30));
  EXPECT_FALSE(budget.Spend(0));
  EXPECT_FALSE(budget.DeadlinePassed(INT64_MAX));
}

}  // namespace
}  // namespace unistore
