#include "core/one_fail_adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace ucr {
namespace {

TEST(OneFailParams, DeltaUpperBoundValue) {
  // sum_{j=1..5} (5/6)^j = 2.9906121...
  EXPECT_NEAR(OneFailParams::delta_upper_bound(), 2.9906121399, 1e-9);
}

TEST(OneFailParams, Validation) {
  EXPECT_NO_THROW(OneFailParams{2.72}.validate());
  EXPECT_NO_THROW(OneFailParams{2.99}.validate());
  EXPECT_THROW(OneFailParams{2.718}.validate(), ContractViolation);  // <= e
  EXPECT_THROW(OneFailParams{3.0}.validate(), ContractViolation);
  EXPECT_THROW(OneFailParams{0.5}.validate(), ContractViolation);
}

TEST(OneFailState, InitialState) {
  const OneFailState st(OneFailParams{2.72});
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);  // delta + 1
  EXPECT_EQ(st.sigma(), 0u);
  EXPECT_EQ(st.step(), 1u);
  EXPECT_FALSE(st.is_bt_step());  // step 1 is an AT step (1 mod 2 != 0)
}

TEST(OneFailState, StepParityAlternates) {
  OneFailState st(OneFailParams{2.72});
  EXPECT_FALSE(st.is_bt_step());
  st.advance(false);
  EXPECT_TRUE(st.is_bt_step());
  st.advance(false);
  EXPECT_FALSE(st.is_bt_step());
}

TEST(OneFailState, AtProbabilityIsInverseEstimator) {
  OneFailState st(OneFailParams{2.72});
  EXPECT_DOUBLE_EQ(st.transmit_probability(), 1.0 / 3.72);
}

// Algorithm 1 line 8, evaluated afresh: the value OneFailState's cached
// BT probability must equal bit for bit.
double line8_probability(std::uint64_t sigma) {
  return 1.0 / (1.0 + std::log2(static_cast<double>(sigma) + 1.0));
}

TEST(OneFailState, BtProbabilityFollowsSigma) {
  OneFailState st(OneFailParams{2.72});
  st.advance(false);  // move to the BT step, no delivery
  ASSERT_TRUE(st.is_bt_step());
  // sigma = 0: p = 1/(1 + log2(1)) = 1.
  EXPECT_EQ(st.transmit_probability(), 1.0);

  // Hear three deliveries (on BT steps), then check p = 1/(1+log2(4)) = 1/3.
  OneFailState st2(OneFailParams{2.72});
  for (int i = 0; i < 3; ++i) {
    st2.advance(false);         // AT -> BT
    ASSERT_TRUE(st2.is_bt_step());
    st2.advance(true);          // BT delivery heard
  }
  st2.advance(false);  // AT -> BT
  ASSERT_TRUE(st2.is_bt_step());
  EXPECT_EQ(st2.sigma(), 3u);
  EXPECT_EQ(st2.transmit_probability(), 1.0 / 3.0);

  // Deliveries heard on AT steps move sigma too: two more make it 5.
  for (int i = 0; i < 2; ++i) {
    st2.advance(false);  // BT -> AT
    ASSERT_FALSE(st2.is_bt_step());
    st2.advance(true);   // AT delivery heard; now on a BT step
    ASSERT_TRUE(st2.is_bt_step());
    EXPECT_EQ(st2.transmit_probability(), line8_probability(st2.sigma()));
  }
  EXPECT_EQ(st2.sigma(), 5u);
  EXPECT_EQ(st2.transmit_probability(), 1.0 / (1.0 + std::log2(6.0)));
}

TEST(OneFailState, AtStepIncrementsEstimator) {
  OneFailState st(OneFailParams{2.72});
  const double k0 = st.kappa_estimate();
  st.advance(false);  // silent AT step: line 11 adds 1
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), k0 + 1.0);
  st.advance(false);  // silent BT step: no estimator change
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), k0 + 1.0);
}

TEST(OneFailState, AtDeliveryNetsMinusDelta) {
  // Net AT-success update: +1 (line 11) then -(delta+1) (Task 2) = -delta,
  // floored at delta+1.
  OneFailParams params{2.72};
  OneFailState st(params);
  // Raise the estimator well above the floor first: 10 silent AT steps.
  for (int i = 0; i < 20; ++i) st.advance(false);
  const double before = st.kappa_estimate();
  ASSERT_FALSE(st.is_bt_step());
  st.advance(true);
  EXPECT_NEAR(st.kappa_estimate(), before - params.delta, 1e-12);
  EXPECT_EQ(st.sigma(), 1u);
}

TEST(OneFailState, BtDeliverySubtractsDelta) {
  OneFailParams params{2.72};
  OneFailState st(params);
  for (int i = 0; i < 21; ++i) st.advance(false);
  ASSERT_TRUE(st.is_bt_step());
  const double before = st.kappa_estimate();
  st.advance(true);
  EXPECT_NEAR(st.kappa_estimate(), before - params.delta, 1e-12);
}

TEST(OneFailState, EstimatorFlooredAtDeltaPlusOne) {
  OneFailParams params{2.72};
  OneFailState st(params);
  for (int i = 0; i < 100; ++i) st.advance(true);  // deliveries only
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), params.delta + 1.0);
}

TEST(OneFailState, SigmaCountsAllHeardDeliveries) {
  OneFailState st(OneFailParams{2.72});
  for (int i = 0; i < 10; ++i) st.advance(i % 2 == 0);
  EXPECT_EQ(st.sigma(), 5u);
}

TEST(OneFailAdaptive, FairViewDelegatesToState) {
  OneFailAdaptive p;
  EXPECT_DOUBLE_EQ(p.transmit_probability(), 1.0 / 3.72);
  p.on_slot_end(false);
  EXPECT_TRUE(p.state().is_bt_step());
}

TEST(OneFailAdaptiveNode, IgnoresOwnDeliverySlot) {
  OneFailAdaptiveNode node;
  const double kappa_before = node.state().kappa_estimate();
  Feedback fb;
  fb.delivered_mine = true;
  fb.transmitted = true;
  node.on_slot_end(fb);
  // Task 3: the station stops; its state must not advance.
  EXPECT_EQ(node.state().step(), 1u);
  EXPECT_DOUBLE_EQ(node.state().kappa_estimate(), kappa_before);
}

TEST(OneFailAdaptiveNode, OwnDeliveryKeepsCachedBtProbability) {
  OneFailAdaptiveNode node;
  Feedback heard;
  heard.heard_delivery = true;
  node.on_slot_end(heard);  // AT step, sigma = 1
  node.on_slot_end(heard);  // BT step, sigma = 2
  node.on_slot_end(Feedback{});  // AT step; now on a BT step
  ASSERT_TRUE(node.state().is_bt_step());
  const double before = node.transmit_probability();
  EXPECT_EQ(before, line8_probability(2));

  Feedback mine;
  mine.delivered_mine = true;
  mine.transmitted = true;
  node.on_slot_end(mine);
  EXPECT_EQ(node.state().sigma(), 2u);
  ASSERT_TRUE(node.state().is_bt_step());
  EXPECT_EQ(node.transmit_probability(), before);
}

TEST(OneFailAdaptiveNode, AdvancesOnOtherFeedback) {
  OneFailAdaptiveNode node;
  Feedback fb;
  fb.heard_delivery = true;
  node.on_slot_end(fb);
  EXPECT_EQ(node.state().step(), 2u);
  EXPECT_EQ(node.state().sigma(), 1u);
}

TEST(OneFailFactory, ProvidesBothViews) {
  const auto f = make_one_fail_factory();
  EXPECT_EQ(f.name, "One-Fail Adaptive");
  EXPECT_TRUE(static_cast<bool>(f.fair_slot));
  EXPECT_FALSE(static_cast<bool>(f.window));
  EXPECT_TRUE(static_cast<bool>(f.node));
  EXPECT_THROW(make_one_fail_factory(OneFailParams{1.0}), ContractViolation);
}

TEST(OneFailState, ProbabilityAlwaysValidUnderRandomFeedback) {
  // Every BT step also reads the cached line-8 probability, which must be
  // the very double a fresh evaluation gives for the current sigma.
  OneFailState st(OneFailParams{2.9});
  Xoshiro256 rng(77);
  for (int i = 0; i < 5000; ++i) {
    const double p = st.transmit_probability();
    ASSERT_GT(p, 0.0);
    ASSERT_LE(p, 1.0);
    if (st.is_bt_step()) {
      ASSERT_EQ(p, line8_probability(st.sigma())) << "step " << st.step();
    }
    st.advance(rng.next_bernoulli(0.2));
  }
  EXPECT_GT(st.sigma(), 500u);
}

}  // namespace
}  // namespace ucr
