#include "core/dynamic_one_fail.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

TEST(DynamicOneFailState, InitialState) {
  const DynamicOneFail st(OneFailParams{2.72});
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);
  EXPECT_TRUE(st.in_fast_start());
  EXPECT_DOUBLE_EQ(st.fast_start_ceiling(), 7.44);
  EXPECT_DOUBLE_EQ(st.transmit_probability(), 1.0 / 3.72);
}

TEST(DynamicOneFailState, FastStartDoublesThenSweeps) {
  DynamicOneFail st(OneFailParams{2.72});
  st.on_slot_end(false);  // 3.72 -> 7.44 (== ceiling, no reset)
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 7.44);
  st.on_slot_end(false);  // 14.88 > 7.44 -> reset to floor, ceiling 14.88
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);
  EXPECT_DOUBLE_EQ(st.fast_start_ceiling(), 14.88);
  st.on_slot_end(false);  // 7.44
  st.on_slot_end(false);  // 14.88 (== ceiling)
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 14.88);
  st.on_slot_end(false);  // 29.76 > 14.88 -> reset, ceiling 29.76
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);
}

TEST(DynamicOneFailState, IsolatedStationStaysLive) {
  // The sawtooth guarantees the transmission probabilities do not sum to a
  // convergent series: the floor probability 1/(delta+1) recurs forever.
  DynamicOneFail st(OneFailParams{2.72});
  int floor_visits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (st.transmit_probability() > 0.25) ++floor_visits;
    st.on_slot_end(false);
  }
  EXPECT_GE(floor_visits, 10);  // revisited on every phase
}

TEST(DynamicOneFailState, DeliveryEndsFastStart) {
  DynamicOneFail st(OneFailParams{2.72});
  for (int i = 0; i < 7; ++i) st.on_slot_end(false);
  st.on_slot_end(true);
  EXPECT_FALSE(st.in_fast_start());
  // Track mode: +1 per silent slot now.
  const double k0 = st.kappa_estimate();
  st.on_slot_end(false);
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), k0 + 1.0);
}

TEST(DynamicOneFailState, TrackModeMatchesOneFailDrift) {
  DynamicOneFail st(OneFailParams{2.72});
  st.on_slot_end(true);  // enter track at the floor
  for (int i = 0; i < 20; ++i) st.on_slot_end(false);
  const double before = st.kappa_estimate();
  st.on_slot_end(true);
  EXPECT_NEAR(st.kappa_estimate(), before - 2.72, 1e-12);
  // Floor is respected.
  for (int i = 0; i < 50; ++i) st.on_slot_end(true);
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);
}

TEST(DynamicOneFail, SolvesStaticBatches) {
  const auto factory = make_dynamic_one_fail_factory();
  for (const std::uint64_t k : {1ULL, 10ULL, 1000ULL}) {
    const AggregateResult res = run_fair_experiment(factory, k, 5, 3, {});
    EXPECT_EQ(res.incomplete_runs, 0u) << "k=" << k;
  }
}

TEST(DynamicOneFail, StaticRatioWellBelowAlgorithmOne) {
  // Without the BT interleave (and with resweeps catching undershoots) the
  // static ratio lands around 3.1-3.3 — less than half of Algorithm 1's
  // 7.44, at the cost of the analyzed tail guarantee.
  const auto factory = make_dynamic_one_fail_factory();
  const AggregateResult res = run_fair_experiment(factory, 10000, 10, 4, {});
  EXPECT_GT(res.ratio.mean, 2.72);  // cannot beat the fair optimum e
  EXPECT_LT(res.ratio.mean, 5.0);
}

TEST(DynamicOneFailState, ResweepAfterSilenceLimit) {
  DynamicOneFail st(OneFailParams{2.72});
  st.on_slot_end(true);  // enter track mode
  ASSERT_FALSE(st.in_fast_start());
  for (std::uint64_t i = 0; i < DynamicOneFail::kSilenceLimit; ++i) {
    st.on_slot_end(false);
  }
  EXPECT_TRUE(st.in_fast_start());
  EXPECT_DOUBLE_EQ(st.kappa_estimate(), 3.72);
  EXPECT_DOUBLE_EQ(st.fast_start_ceiling(), 7.44);
}

TEST(DynamicOneFailState, DeliveryResetsSilentRun) {
  DynamicOneFail st(OneFailParams{2.72});
  st.on_slot_end(true);
  for (std::uint64_t i = 0; i + 1 < DynamicOneFail::kSilenceLimit; ++i) {
    st.on_slot_end(false);
  }
  EXPECT_EQ(st.silent_run(), DynamicOneFail::kSilenceLimit - 1);
  st.on_slot_end(true);
  EXPECT_EQ(st.silent_run(), 0u);
  EXPECT_FALSE(st.in_fast_start());
}

TEST(DynamicOneFail, SurvivesPoissonArrivalsWhereOriginalLivelocks) {
  // lambda = 0.1 makes the published Algorithm 1 livelock (see
  // EXPERIMENTS.md); the dynamic variant must complete every run.
  const auto factory = make_dynamic_one_fail_factory();
  for (std::uint64_t r = 0; r < 5; ++r) {
    Xoshiro256 arrival_rng = Xoshiro256::stream(5, r);
    const auto arrivals = poisson_arrivals(300, 0.1, arrival_rng);
    Xoshiro256 rng = Xoshiro256::stream(6, r);
    const NodeFactory node_factory = [&](Xoshiro256&) {
      return std::make_unique<FairSlotStation<DynamicOneFail>>(
          DynamicOneFail());
    };
    EngineOptions opts;
    opts.max_slots = 300000;
    const RunMetrics run = run_node_engine(node_factory, arrivals, rng, opts);
    EXPECT_TRUE(run.completed) << "run " << r;
  }
}

TEST(DynamicOneFailFactory, Views) {
  const auto f = make_dynamic_one_fail_factory();
  EXPECT_EQ(f.name, "Dynamic One-Fail Adaptive");
  EXPECT_TRUE(static_cast<bool>(f.fair_slot));
  EXPECT_TRUE(static_cast<bool>(f.node));
  EXPECT_THROW(make_dynamic_one_fail_factory(OneFailParams{1.0}),
               ContractViolation);
}

}  // namespace
}  // namespace ucr
