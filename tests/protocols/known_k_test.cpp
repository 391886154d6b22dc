#include "protocols/known_k.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/fair_engine.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

TEST(KnownKGenie, ProbabilityIsOneOverRemaining) {
  KnownKGenie g(4);
  EXPECT_DOUBLE_EQ(g.transmit_probability(), 0.25);
  g.on_slot_end(true);
  EXPECT_DOUBLE_EQ(g.transmit_probability(), 1.0 / 3.0);
  g.on_slot_end(false);
  EXPECT_DOUBLE_EQ(g.transmit_probability(), 1.0 / 3.0);
  g.on_slot_end(true);
  g.on_slot_end(true);
  EXPECT_EQ(g.remaining(), 1u);
  EXPECT_DOUBLE_EQ(g.transmit_probability(), 1.0);
}

TEST(KnownKGenie, RejectsZeroK) {
  EXPECT_THROW(KnownKGenie(0), ContractViolation);
}

TEST(KnownKGenie, AchievesRatioNearE) {
  // The genie's per-slot success probability is ~1/e, so its ratio must be
  // close to e (Section 5's optimum for fair protocols).
  const auto factory = make_known_k_factory();
  const AggregateResult res =
      run_fair_experiment(factory, 2000, 20, 123, {});
  EXPECT_EQ(res.incomplete_runs, 0u);
  EXPECT_NEAR(res.ratio.mean, 2.718, 0.15);
}

TEST(KnownKGenie, BeatsEveryKnowledgeFreeProtocol) {
  // Lower bound sanity: nothing fair can beat ratio e by more than noise.
  const auto factory = make_known_k_factory();
  const AggregateResult res = run_fair_experiment(factory, 500, 30, 9, {});
  EXPECT_GT(res.ratio.mean, 2.5);
}

}  // namespace
}  // namespace ucr
