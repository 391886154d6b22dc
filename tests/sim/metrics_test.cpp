#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace ucr {
namespace {

RunMetrics valid_completed_run() {
  RunMetrics m;
  m.k = 3;
  m.completed = true;
  m.deliveries = 3;
  m.success_slots = 3;
  m.silence_slots = 2;
  m.collision_slots = 1;
  m.slots = 6;
  return m;
}

TEST(RunMetrics, RatioComputesSlotsPerK) {
  RunMetrics m = valid_completed_run();
  EXPECT_DOUBLE_EQ(m.ratio(), 2.0);
  m.k = 0;
  EXPECT_THROW(m.ratio(), ContractViolation);
}

TEST(RunMetrics, ValidatePassesOnConsistentRun) {
  EXPECT_NO_THROW(valid_completed_run().validate());
}

TEST(RunMetrics, ValidateCatchesOutcomeSumMismatch) {
  RunMetrics m = valid_completed_run();
  m.slots = 7;
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(RunMetrics, ValidateAcceptsAnUnsampledSplitOnlyAsZeros) {
  RunMetrics m = valid_completed_run();
  m.silence_collision_sampled = false;
  EXPECT_THROW(m.validate(), ContractViolation);  // a partial count
  m.silence_slots = 0;
  m.collision_slots = 0;
  EXPECT_NO_THROW(m.validate());
  m.slots = 2;  // fewer slots than success slots
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(RunMetrics, ValidateCatchesDeliverySuccessMismatch) {
  RunMetrics m = valid_completed_run();
  m.deliveries = 2;
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(RunMetrics, ValidateCatchesIncompleteWithAllDelivered) {
  RunMetrics m = valid_completed_run();
  m.completed = false;
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(RunMetrics, ValidateCatchesCompletedWithMissingDeliveries) {
  RunMetrics m = valid_completed_run();
  m.k = 4;  // claims completed but only 3 delivered
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(RunMetrics, ValidateChecksDeliverySlotOrdering) {
  RunMetrics m = valid_completed_run();
  m.delivery_slots = {1, 3, 5};
  EXPECT_NO_THROW(m.validate());
  m.delivery_slots = {1, 5, 3};
  EXPECT_THROW(m.validate(), ContractViolation);
  m.delivery_slots = {1, 1, 2};  // duplicates are impossible
  EXPECT_THROW(m.validate(), ContractViolation);
  m.delivery_slots = {1, 2};  // count mismatch
  EXPECT_THROW(m.validate(), ContractViolation);
}

TEST(EngineOptions, DefaultCapScalesWithK) {
  const EngineOptions opts;
  EXPECT_EQ(opts.resolved_cap(1), 1'000'000ULL + 100'000ULL);
  EXPECT_EQ(opts.resolved_cap(1000), 1'000'000ULL + 100'000'000ULL);
}

TEST(EngineOptions, ExplicitCapWins) {
  EngineOptions opts;
  opts.max_slots = 500;
  EXPECT_EQ(opts.resolved_cap(123456), 500u);
}

}  // namespace
}  // namespace ucr
