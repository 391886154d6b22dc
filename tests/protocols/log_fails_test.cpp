#include "protocols/log_fails_adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ucr {
namespace {

LogFailsParams params_with(double xi_t, double epsilon = 0.0) {
  LogFailsParams p;
  p.xi_t = xi_t;
  p.epsilon = epsilon;
  return p;
}

// Feeds silent steps until `n` AT fails have accumulated.
void feed_at_fails(LogFailsAdaptive& st, std::uint64_t n) {
  std::uint64_t fails = 0;
  while (fails < n) {
    if (!st.is_bt_step()) ++fails;
    st.on_slot_end(false);
  }
}

TEST(LogFailsParams, Validation) {
  EXPECT_NO_THROW(params_with(0.5).validate());
  EXPECT_NO_THROW(params_with(0.1).validate());
  EXPECT_THROW(params_with(0.0).validate(), ContractViolation);
  EXPECT_THROW(params_with(0.6).validate(), ContractViolation);
  LogFailsParams bad;
  bad.xi_delta = 0.0;
  EXPECT_THROW(bad.validate(), ContractViolation);
  LogFailsParams bad2;
  bad2.epsilon = 0.7;
  EXPECT_THROW(bad2.validate(), ContractViolation);
}

TEST(LogFailsState, DerivesEpsilonFromK) {
  // epsilon = 1/(k+1) = 1/101 -> BT probability 1/(1+log2(101)).
  const LogFailsAdaptive st(params_with(0.5), 100);
  EXPECT_NEAR(st.bt_probability(), 1.0 / (1.0 + std::log2(101.0)), 1e-12);
}

TEST(LogFailsState, ExplicitEpsilonWins) {
  const LogFailsAdaptive st(params_with(0.5, 1.0 / 17.0), 100);
  EXPECT_NEAR(st.bt_probability(), 1.0 / (1.0 + std::log2(17.0)), 1e-12);
}

TEST(LogFailsState, BtPeriodFromXiT) {
  EXPECT_EQ(LogFailsAdaptive(params_with(0.5), 10).bt_period(), 2u);
  EXPECT_EQ(LogFailsAdaptive(params_with(0.1), 10).bt_period(), 10u);
}

// Walks one state through at least `steps` steps of mixed
// on_slot_end(true), on_slot_end(false) and on_non_delivery_slots(count)
// calls, count anywhere up to slot_cycle().slots, so that bulk advances
// span BT steps and end on fail-threshold crossings. Every step-dependent
// answer is checked against a reference 1-based step count taken modulo
// bt_period(), and after every call the state must match, bit for bit, a
// twin that took each bulk advance as per-slot on_slot_end(false) calls.
void walk_against_reference_step(double xi_t, std::uint64_t steps) {
  LogFailsAdaptive st(params_with(xi_t), 1000);
  LogFailsAdaptive twin = st;
  const std::uint64_t period = st.bt_period();
  Xoshiro256 rng(static_cast<std::uint64_t>(1.0 / xi_t));
  std::uint64_t step = 1;
  std::uint64_t at_bulk_advances = 0;  // bulk advances from an AT step
  std::uint64_t spanning_advances = 0;  // bulk advances across a BT step
  std::uint64_t bulk_crossings = 0;     // bulk advances ending in a crossing
  std::uint64_t threshold_crossings = 0;
  while (step <= steps) {
    const bool bt = step % period == 0;
    ASSERT_EQ(st.is_bt_step(), bt) << "step " << step;
    const std::uint64_t threshold = st.fail_threshold();
    const std::uint64_t to_threshold =
        st.fail_count() >= threshold ? 1 : threshold - st.fail_count();
    const SlotCycle cycle = st.slot_cycle();
    // The constant part of the cycle, the node hint, is the distance to
    // the next BT step or fail-threshold crossing, and constant_slots()
    // computes it without the cycle.
    ASSERT_EQ(st.constant_slots(), cycle.constant_slots()) << "step " << step;
    if (bt) {
      ASSERT_EQ(cycle.constant_slots(), 1u) << "step " << step;
      ASSERT_EQ(st.transmit_probability(), st.bt_probability());
    } else {
      ASSERT_EQ(cycle.constant_slots(),
                std::min(period - step % period, to_threshold))
          << "step " << step;
      ASSERT_EQ(st.transmit_probability(), 1.0 / st.kappa_estimate())
          << "step " << step;
    }
    // The whole cycle: BT steps on the multiples of the period, AT steps
    // at 1/kappa~ up to and including the to_threshold-th.
    ASSERT_EQ(cycle.period, period);
    ASSERT_EQ(cycle.to_bt, (period - step % period) % period)
        << "step " << step;
    ASSERT_EQ(cycle.at, 1.0 / st.kappa_estimate());
    ASSERT_EQ(cycle.bt, st.bt_probability());
    std::uint64_t slots = 0;
    for (std::uint64_t at = 0; at < to_threshold; ++slots) {
      if ((step + slots) % period != 0) ++at;
    }
    ASSERT_EQ(cycle.slots, slots) << "step " << step;

    const std::uint64_t choice = rng.next_below(8);
    const double kappa = st.kappa_estimate();
    if (choice == 0) {
      st.on_slot_end(true);
      twin.on_slot_end(true);
      ++step;
    } else if (choice < 4) {
      // To the crossing, or anywhere short of it.
      const std::uint64_t count =
          choice == 1 ? cycle.slots : 1 + rng.next_below(cycle.slots);
      st.on_non_delivery_slots(count);
      for (std::uint64_t i = 0; i < count; ++i) twin.on_slot_end(false);
      step += count;
      at_bulk_advances += bt ? 0 : 1;
      spanning_advances += count > cycle.constant_slots() ? 1 : 0;
      bulk_crossings += st.kappa_estimate() != kappa;
      threshold_crossings += st.kappa_estimate() != kappa;
    } else {
      st.on_slot_end(false);
      twin.on_slot_end(false);
      ++step;
      threshold_crossings += st.kappa_estimate() != kappa;
    }
    ASSERT_EQ(st.fail_count(), twin.fail_count()) << "step " << step;
    ASSERT_EQ(st.slot_cycle().to_bt, twin.slot_cycle().to_bt)  // the phase
        << "step " << step;
    ASSERT_EQ(st.in_search_phase(), twin.in_search_phase());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(st.kappa_estimate()),
              std::bit_cast<std::uint64_t>(twin.kappa_estimate()))
        << "step " << step;
  }
  // The walk reached both rare branches the per-step answers depend on.
  EXPECT_GT(at_bulk_advances, 0u);
  EXPECT_GT(spanning_advances, 0u);
  EXPECT_GT(bulk_crossings, 0u);
  EXPECT_GT(threshold_crossings, 0u);
}

TEST(LogFailsState, BtStepsOccurAtPeriod) {
  LogFailsAdaptive st(params_with(0.5), 10);
  // Steps are 1-based: step 1 AT, step 2 BT, step 3 AT, ...
  EXPECT_FALSE(st.is_bt_step());
  st.on_slot_end(false);
  EXPECT_TRUE(st.is_bt_step());
  st.on_slot_end(false);
  EXPECT_FALSE(st.is_bt_step());

  walk_against_reference_step(0.5, 200000);
  walk_against_reference_step(0.1, 200000);
}

TEST(LogFailsState, ThresholdsScaleWithLogAndLogSquared) {
  const LogFailsAdaptive st(params_with(0.5), 100);
  const double ln101 = std::log(101.0);
  // F_s = ceil(10 ln^2(101)), F_t = ceil(10 ln(101)).
  EXPECT_EQ(st.search_threshold(),
            static_cast<std::uint64_t>(std::ceil(10.0 * ln101 * ln101)));
  EXPECT_EQ(st.track_threshold(),
            static_cast<std::uint64_t>(std::ceil(10.0 * ln101)));
  EXPECT_GT(st.search_threshold(), st.track_threshold());
}

TEST(LogFailsState, StartsInSearchPhaseWithSearchThreshold) {
  LogFailsAdaptive st(params_with(0.5), 100);
  EXPECT_TRUE(st.in_search_phase());
  EXPECT_EQ(st.fail_threshold(), st.search_threshold());
}

TEST(LogFailsState, SearchClimbsMultiplicatively) {
  LogFailsAdaptive st(params_with(0.5), 100);
  const double kappa0 = st.kappa_estimate();
  feed_at_fails(st, st.search_threshold());
  EXPECT_NEAR(st.kappa_estimate(), kappa0 * 1.1, 1e-9);
  EXPECT_EQ(st.fail_count(), 0u);  // counter resets after an update
  EXPECT_TRUE(st.in_search_phase());
}

TEST(LogFailsState, FirstDeliverySwitchesToTracking) {
  LogFailsAdaptive st(params_with(0.5), 100);
  st.on_slot_end(true);
  EXPECT_FALSE(st.in_search_phase());
  EXPECT_EQ(st.fail_threshold(), st.track_threshold());
}

TEST(LogFailsState, TrackingAddsFailBatch) {
  LogFailsAdaptive st(params_with(0.5), 100);
  // Climb a few times so the estimator is well above the floor, then
  // switch to tracking.
  feed_at_fails(st, 40 * st.search_threshold());
  st.on_slot_end(true);
  const double after_delivery = st.kappa_estimate();
  const std::uint64_t f = st.track_threshold();
  feed_at_fails(st, f);
  EXPECT_NEAR(st.kappa_estimate(), after_delivery + static_cast<double>(f),
              1e-9);
}

TEST(LogFailsState, BtStepsDoNotCountAsFails) {
  LogFailsAdaptive st(params_with(0.5), 100);
  EXPECT_FALSE(st.is_bt_step());
  st.on_slot_end(false);  // AT fail
  EXPECT_EQ(st.fail_count(), 1u);
  EXPECT_TRUE(st.is_bt_step());
  st.on_slot_end(false);  // silent BT: not a fail
  EXPECT_EQ(st.fail_count(), 1u);
}

TEST(LogFailsState, DeliveryLowersEstimatorByE) {
  LogFailsAdaptive st(params_with(0.5), 100);
  feed_at_fails(st, 40 * st.search_threshold());
  const double climbed = st.kappa_estimate();
  ASSERT_GT(climbed, 10.0);
  st.on_slot_end(true);
  EXPECT_NEAR(st.kappa_estimate(),
              std::max(climbed - LogFailsAdaptive::track_decrease(),
                       LogFailsAdaptive::kKappaFloor),
              1e-9);
}

TEST(LogFailsState, DeliveryDoesNotResetFailCounter) {
  // Fails accumulate cumulatively in the TRACK phase (this is what lets the
  // estimator keep pace with the density; see
  // docs/PROTOCOLS.md "Log-Fails Adaptive (2)").
  LogFailsAdaptive st(params_with(0.5), 100);
  st.on_slot_end(true);  // enter tracking
  st.on_slot_end(false);  // step 2: BT, not a fail
  st.on_slot_end(false);  // step 3: AT fail
  EXPECT_EQ(st.fail_count(), 1u);
  st.on_slot_end(true);  // delivery
  EXPECT_EQ(st.fail_count(), 1u);
}

TEST(LogFailsState, EstimatorNeverBelowFloor) {
  LogFailsAdaptive st(params_with(0.5), 100);
  for (int i = 0; i < 50; ++i) st.on_slot_end(true);
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), LogFailsAdaptive::kKappaFloor);
  EXPECT_LE(st.transmit_probability(), 0.5);
}

TEST(LogFailsState, ProbabilitiesAreValid) {
  LogFailsAdaptive st(params_with(0.1), 1000);
  for (int i = 0; i < 5000; ++i) {
    const double p = st.transmit_probability();
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
    st.on_slot_end(i % 7 == 0);
  }
}

TEST(LogFailsFactory, DefaultNameEncodesXiT) {
  EXPECT_EQ(make_log_fails_factory(params_with(0.5)).name,
            "Log-Fails Adaptive (2)");
  EXPECT_EQ(make_log_fails_factory(params_with(0.1)).name,
            "Log-Fails Adaptive (10)");
}

TEST(LogFailsFactory, ProvidesBothViews) {
  const auto f = make_log_fails_factory(params_with(0.5));
  EXPECT_TRUE(f.has_fair());
  EXPECT_TRUE(static_cast<bool>(f.node));
  Xoshiro256 rng(1);
  auto fair = f.fair_slot(100);
  auto node = f.node(100, rng);
  EXPECT_NE(fair, nullptr);
  EXPECT_NE(node, nullptr);
}

}  // namespace
}  // namespace ucr
