#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace ucr {
namespace {

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.max(), ContractViolation);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_THROW(s.variance(), ContractViolation);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(QuantileSorted, Interpolation) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 25.0);
  EXPECT_NEAR(quantile_sorted(v, 1.0 / 3.0), 20.0, 1e-12);
  EXPECT_THROW(quantile_sorted({}, 0.5), ContractViolation);
  EXPECT_THROW(quantile_sorted(v, 1.5), ContractViolation);
}

TEST(QuantileSorted, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.99), 7.0);
}

TEST(Summarize, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, UnsortedInputHandled) {
  const Summary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_GT(s.ci95_halfwidth, 0.0);
}

TEST(Summarize, SingleValueHasZeroSpread) {
  const Summary s = summarize({9.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 9.0);
}

TEST(ChiSquare, ZeroWhenObservedEqualsExpected) {
  EXPECT_DOUBLE_EQ(
      chi_square_statistic({10.0, 20.0, 30.0}, {10.0, 20.0, 30.0}), 0.0);
}

TEST(ChiSquare, KnownValue) {
  // ((12-10)^2)/10 + ((8-10)^2)/10 = 0.8
  EXPECT_NEAR(chi_square_statistic({12.0, 8.0}, {10.0, 10.0}), 0.8, 1e-12);
}

TEST(ChiSquare, RejectsMassInZeroBin) {
  EXPECT_THROW(chi_square_statistic({1.0}, {0.0}), ContractViolation);
  EXPECT_NO_THROW(chi_square_statistic({0.0}, {0.0}));
}

TEST(ChiSquare, RejectsSizeMismatch) {
  EXPECT_THROW(chi_square_statistic({1.0, 2.0}, {1.0}), ContractViolation);
}

TEST(ChiSquare, CriticalValuesNearTheExactQuantiles) {
  // The exact 0.999 quantiles at 1, 8, 30 and 100 degrees of freedom.
  const double exact[][2] = {
      {1, 10.828}, {8, 26.124}, {30, 59.703}, {100, 149.449}};
  for (const auto& [df, quantile] : exact) {
    EXPECT_GE(chi_square_critical_999(df), quantile * 0.999) << df;
    EXPECT_LE(chi_square_critical_999(df), quantile * 1.04) << df;
  }
  EXPECT_THROW(chi_square_critical_999(0.0), ContractViolation);
}

TEST(JainIndex, OneForUniformSample) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({3.0}), 1.0);
}

TEST(JainIndex, OneOverNForSingleWinner) {
  // All mass on one element: index = 1/n.
  EXPECT_NEAR(jain_fairness_index({10.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainIndex, KnownMixedValue) {
  // x = {1, 3}: (4)^2 / (2 * 10) = 0.8.
  EXPECT_NEAR(jain_fairness_index({1.0, 3.0}), 0.8, 1e-12);
}

TEST(JainIndex, Contracts) {
  EXPECT_THROW(jain_fairness_index({}), ContractViolation);
  EXPECT_THROW(jain_fairness_index({1.0, -0.5}), ContractViolation);
  EXPECT_THROW(jain_fairness_index({0.0, 0.0}), ContractViolation);
}

}  // namespace
}  // namespace ucr
