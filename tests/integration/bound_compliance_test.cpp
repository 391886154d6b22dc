// Integration: the measured behaviour complies with the paper's analysis —
// Theorem 1 / Theorem 2 bounds hold (with the analyses' slack), the Table 1
// ratio bands are reproduced, and Lemma 5's kappa~ <= kappa invariant-style
// relation holds along trajectories.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "common/samplers.hpp"
#include "common/stats.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/known_k.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

class BoundCompliance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundCompliance, OneFailWithinTheorem1) {
  const std::uint64_t k = GetParam();
  const auto factory = make_one_fail_factory(OneFailParams{2.72});
  const AggregateResult res = run_fair_experiment(factory, k, 20, 101, {});
  ASSERT_EQ(res.incomplete_runs, 0u);
  // Theorem 1: 2(delta+1)k + O(log^2 k) w.p. >= 1 - 2/(1+k). With 20 runs
  // at k >= 100 a violation of the bound (additive constant 50) would be a
  // regression, not noise.
  const double bound = one_fail_bound(2.72, k, 50.0);
  EXPECT_LE(res.makespan.max, bound);
}

TEST_P(BoundCompliance, ExpBackonWithinTheorem2) {
  const std::uint64_t k = GetParam();
  const auto factory = make_exp_backon_factory(ExpBackonParams{0.366});
  const AggregateResult res = run_fair_experiment(factory, k, 20, 202, {});
  ASSERT_EQ(res.incomplete_runs, 0u);
  EXPECT_LE(res.makespan.max, exp_backon_bound(0.366, k));
}

INSTANTIATE_TEST_SUITE_P(KSweep, BoundCompliance,
                         ::testing::Values(100, 1000, 10000));

TEST(TableOneBands, OneFailRatioStabilizesNearSevenPointFour) {
  // Paper Table 1: One-Fail Adaptive's measured ratio is 7.4 from k = 10^3.
  const auto factory = make_one_fail_factory(OneFailParams{2.72});
  const AggregateResult res =
      run_fair_experiment(factory, 10000, 10, 303, {});
  EXPECT_NEAR(res.ratio.mean, 7.4, 0.4);
}

TEST(TableOneBands, OneFailRatioSmallKMatchesPaper) {
  // Paper Table 1 at k = 10: ratio ~ 4.0 (the estimator starts near k).
  const auto factory = make_one_fail_factory(OneFailParams{2.72});
  const AggregateResult res = run_fair_experiment(factory, 10, 200, 404, {});
  EXPECT_NEAR(res.ratio.mean, 4.0, 1.0);
}

TEST(TableOneBands, ExpBackonRatioBetweenFourAndEight) {
  // Paper Table 1: Exp Back-on/Back-off moves between 4 and 8, well below
  // its 14.9 analysis constant.
  const auto factory = make_exp_backon_factory(ExpBackonParams{0.366});
  for (const std::uint64_t k : {1000ULL, 10000ULL}) {
    const AggregateResult res = run_fair_experiment(factory, k, 10, 505, {});
    EXPECT_GT(res.ratio.mean, 3.5) << "k=" << k;
    EXPECT_LT(res.ratio.mean, 9.0) << "k=" << k;
  }
}

TEST(TableOneBands, GenieNearE) {
  const AggregateResult res =
      run_fair_experiment(make_known_k_factory(), 1000, 20, 606, {});
  EXPECT_NEAR(res.ratio.mean, fair_optimal_ratio(), 0.25);
}

TEST(EstimatorInvariant, DeterministicBoundsAlongTrajectories) {
  // Two invariants that hold almost surely (not just w.h.p.):
  //  (a) kappa~ >= delta + 1 (the Task 2 floor of Algorithm 1);
  //  (b) kappa~ <= (delta + 1) + #AT-steps-so-far (it grows at most +1 per
  //      AT step and never increases otherwise).
  const OneFailParams params{2.72};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    OneFailAdaptive protocol(params);
    Xoshiro256 rng = Xoshiro256::stream(909, seed);
    std::uint64_t m = 500;
    std::uint64_t at_steps = 0;
    while (m > 0) {
      if (!protocol.is_bt_step()) ++at_steps;
      const double p = protocol.transmit_probability();
      const auto cat = sample_slot_category(rng, m, p);
      const bool delivery = cat == SlotCategory::kSuccess;
      if (delivery) --m;
      protocol.on_slot_end(delivery);
      const double kappa_tilde = protocol.kappa_estimate();
      ASSERT_GE(kappa_tilde, params.delta + 1.0);
      ASSERT_LE(kappa_tilde,
                params.delta + 1.0 + static_cast<double>(at_steps) + 1e-9);
    }
  }
}

TEST(EstimatorTracking, KappaEstimateApproachesTrueDensityAtDeliveries) {
  // The mechanism behind Theorem 1: the first deliveries happen when the
  // estimator has climbed to the vicinity of the true density. Check that
  // at the first delivery kappa~ is within a constant factor of kappa.
  const OneFailParams params{2.72};
  RunningStats ratio_at_first_delivery;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    OneFailAdaptive protocol(params);
    Xoshiro256 rng = Xoshiro256::stream(1717, seed);
    std::uint64_t m = 1000;
    while (m == 1000) {
      const double p = protocol.transmit_probability();
      const auto cat = sample_slot_category(rng, m, p);
      if (cat == SlotCategory::kSuccess) {
        ratio_at_first_delivery.add(protocol.kappa_estimate() /
                                    static_cast<double>(m));
        --m;
      }
      protocol.on_slot_end(cat == SlotCategory::kSuccess);
    }
  }
  // The first success typically lands while the estimator is still an
  // order-of-magnitude fraction of the density (success probability
  // (kappa/kappa~) e^{-kappa/kappa~} becomes non-negligible from
  // kappa~ ~ kappa/6 on); by the last deliveries it has caught up.
  EXPECT_GT(ratio_at_first_delivery.mean(), 0.08);
  EXPECT_LT(ratio_at_first_delivery.mean(), 1.2);
}

}  // namespace
}  // namespace ucr
