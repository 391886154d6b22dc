#include "sim/arrival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "core/exp_backon_backoff.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

TEST(BatchedArrivals, AllAtSlotZero) {
  const ArrivalPattern a = batched_arrivals(5);
  ASSERT_EQ(a.size(), 5u);
  for (const auto slot : a) EXPECT_EQ(slot, 0u);
}

TEST(BatchedArrivals, EmptyBatch) {
  EXPECT_TRUE(batched_arrivals(0).empty());
}

TEST(PoissonArrivals, SortedAndSized) {
  Xoshiro256 rng(1);
  const ArrivalPattern a = poisson_arrivals(100, 0.1, rng);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(PoissonArrivals, MeanInterArrivalMatchesRate) {
  Xoshiro256 rng(2);
  const double lambda = 0.25;
  const ArrivalPattern a = poisson_arrivals(20000, lambda, rng);
  // Last arrival time ~ k / lambda.
  const double expected_span = 20000.0 / lambda;
  EXPECT_NEAR(static_cast<double>(a.back()), expected_span,
              0.05 * expected_span);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  Xoshiro256 rng(3);
  EXPECT_THROW(poisson_arrivals(10, 0.0, rng), ContractViolation);
  EXPECT_THROW(poisson_arrivals(10, -1.0, rng), ContractViolation);
}

TEST(BurstArrivals, ShapeAndSpacing) {
  const ArrivalPattern a = burst_arrivals(3, 4, 100);
  ASSERT_EQ(a.size(), 12u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // First burst at 0, second at 100, third at 200; 4 messages each.
  EXPECT_EQ(std::count(a.begin(), a.end(), 0u), 4);
  EXPECT_EQ(std::count(a.begin(), a.end(), 100u), 4);
  EXPECT_EQ(std::count(a.begin(), a.end(), 200u), 4);
}

TEST(BurstArrivals, SingleBurstIsBatch) {
  EXPECT_EQ(burst_arrivals(1, 7, 50), batched_arrivals(7));
}

TEST(BurstArrivals, RejectsEmptyShape) {
  EXPECT_THROW(burst_arrivals(0, 4, 10), ContractViolation);
  EXPECT_THROW(burst_arrivals(4, 0, 10), ContractViolation);
}

// A time at or past 2^64 slots saturates to UINT64_MAX, a message that
// never arrives. The bare double -> uint64 cast is undefined there and
// yields slot 0 on x86-64, a slot-0 batch.
TEST(ArrivalTimes, PastTwoToThe64Saturate) {
  Xoshiro256 rng(4);
  const ArrivalPattern poisson = poisson_arrivals(50, 1e-30, rng);
  ASSERT_EQ(poisson.size(), 50u);
  for (const auto slot : poisson) EXPECT_EQ(slot, UINT64_MAX);

  const ArrivalPattern pareto = pareto_arrivals(50, 1.5, 1e30, rng);
  ASSERT_EQ(pareto.size(), 50u);
  for (const auto slot : pareto) EXPECT_EQ(slot, UINT64_MAX);

  // Below 2^64 times still floor to their slot: a mean gap of 10^17
  // slots keeps 50 arrivals far from both 0 and the saturation value.
  const ArrivalPattern sparse = poisson_arrivals(50, 1e-17, rng);
  EXPECT_TRUE(std::is_sorted(sparse.begin(), sparse.end()));
  EXPECT_GT(sparse.front(), 0u);
  EXPECT_LT(sparse.back(), UINT64_MAX);
}

TEST(ArrivalTimes, NeverArrivingMessagesLeaveTheRunIncomplete) {
  Xoshiro256 rng(5);
  const ArrivalPattern never = poisson_arrivals(50, 1e-30, rng);
  for (const bool batched : {false, true}) {
    EngineOptions options;
    options.max_slots = 1000;
    options.batched = batched;
    const RunMetrics run =
        run_single_node(make_exp_backon_factory(), never, 0, 1, options);
    EXPECT_FALSE(run.completed) << "batched=" << batched;
    EXPECT_EQ(run.deliveries, 0u) << "batched=" << batched;
    EXPECT_EQ(run.slots, 1000u) << "batched=" << batched;
  }
}

}  // namespace
}  // namespace ucr
