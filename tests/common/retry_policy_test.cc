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

TEST(RetryBudgetTest, ZeroBaseKeepsLegacyImmediateRetry) {
  RetryPolicy policy;  // backoff_base_us == 0.
  RetryBudget budget(policy, 0);
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 0);
}

TEST(RetryBudgetTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.backoff_base_us = 1000;
  policy.backoff_cap_us = 5000;
  RetryBudget budget(policy, 0);
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 1000);  // 1st retry: base.
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 2000);  // 2nd: base * 2.
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 4000);  // 3rd: base * 4.
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 5000);  // 4th: capped.
  budget.Spend(0);
  EXPECT_EQ(budget.NextDelayUs(nullptr), 5000);  // Stays at the cap.
}

TEST(RetryBudgetTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.max_retries = 50;
  policy.backoff_base_us = 1000;
  policy.backoff_cap_us = 1000;
  policy.jitter_us = 250;
  auto draws = [&policy]() {
    Rng rng(99);
    RetryBudget budget(policy, 0);
    std::vector<int64_t> out;
    for (int i = 0; i < 20; ++i) {
      budget.Spend(0);
      out.push_back(budget.NextDelayUs(&rng));
    }
    return out;
  };
  std::vector<int64_t> a = draws();
  for (int64_t d : a) {
    EXPECT_GE(d, 1000);
    EXPECT_LE(d, 1250);
  }
  EXPECT_EQ(a, draws());  // Same seed, same delays.
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
