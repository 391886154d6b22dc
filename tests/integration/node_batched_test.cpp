// Integration: the per-node engine's batched mode (run_node_engine with
// EngineOptions::batched) induces the same law of outcomes as its exact
// mode, for every protocol in the catalogue, under dynamic arrivals.
// Wherever a stationary stretch is actually skipped batched mode consumes
// randomness differently (geometric run lengths and a conditional
// success-attribution draw instead of per-station coins), so individual
// runs may differ; equivalence is checked statistically — mean and median
// makespan plus mean collision count within Monte-Carlo tolerances —
// through the same shared helper (tests/common/stat_equiv.hpp) as
// tests/integration/batched_engine_test.cpp.
//
// The file also pins the contracts batched mode ships with:
//  * default-hint (stationary_slots() == 1) protocols are bit-identical to
//    exact mode — empty arrival gaps consume no randomness in either
//    mode, so the skip is invisible;
//  * window protocols are bit-identical too: the adapter pre-draws its one
//    in-window transmission slot from a private per-station substream
//    (protocols/window_node.hpp), so every window slot has probability
//    exactly 0 or 1, certified stretches are deterministic silence, and
//    the degenerate geometric/binomial draws consume nothing — per-message
//    latencies included;
// Its paper-scale wall-clock floors live in timing_floor_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"
#include "sim/runner.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

ProtocolFactory factory_by_name(const std::string& name) {
  if (name == "Dynamic One-Fail Adaptive") {
    return make_dynamic_one_fail_factory();
  }
  for (auto& p : all_protocols()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown protocol: " << name;
  return {};
}

EngineOptions exact_options() {
  EngineOptions options;
  options.record_latencies = true;  // feeds the latency-percentile check
  return options;
}

EngineOptions batched_options() {
  EngineOptions options = exact_options();
  options.batched = true;
  return options;
}

class NodeBatchedEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(NodeBatchedEquivalence, PoissonCellAgrees) {
  const auto factory = factory_by_name(GetParam());
  Xoshiro256 arrival_rng = Xoshiro256::stream(12, 0);
  const auto arrivals = poisson_arrivals(80, 0.05, arrival_rng);
  const std::uint64_t runs = 120;
  const AggregateResult exact =
      run_node_experiment(factory, arrivals, runs, 1111, exact_options());
  const AggregateResult batched =
      run_node_experiment(factory, arrivals, runs, 2222, batched_options());
  testutil::expect_statistical_agreement(exact, batched,
                                         GetParam() + " (poisson)");
}

TEST_P(NodeBatchedEquivalence, BurstCellAgrees) {
  // Bursts create real per-burst contention, so protocol dynamics (and
  // the collision envelope) dominate — the workload where a modeling
  // error in the stretch sampler would actually show.
  const auto factory = factory_by_name(GetParam());
  const auto arrivals = burst_arrivals(4, 20, 400);
  const std::uint64_t runs = 120;
  const AggregateResult exact =
      run_node_experiment(factory, arrivals, runs, 3333, exact_options());
  const AggregateResult batched =
      run_node_experiment(factory, arrivals, runs, 4444, batched_options());
  testutil::expect_statistical_agreement(exact, batched,
                                         GetParam() + " (burst)");
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, NodeBatchedEquivalence,
    ::testing::Values("One-Fail Adaptive", "Exp Back-on/Back-off",
                      "Log-Fails Adaptive (2)", "Log-Fails Adaptive (10)",
                      "LogLog-Iterated Back-off",
                      "Exponential Back-off (r=2)", "Known-k genie (1/k)",
                      "Dynamic One-Fail Adaptive"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(NodeBatchedEquivalence, HintOneProtocolsAreBitIdentical) {
  // One-Fail Adaptive and Dynamic One-Fail keep the conservative
  // stationary hint of 1 (their estimators move every slot), so every
  // busy slot takes the exact per-station draws in the exact order —
  // and empty arrival gaps consume no randomness in either engine.
  // Switching EngineOptions::batched must not change a single metric.
  // One-Fail Adaptive livelocks on one of the Poisson runs; the cap keeps
  // it short, and a capped run still compares every field.
  EngineOptions exact_capped;
  exact_capped.max_slots = 200000;
  EngineOptions batched_capped = exact_capped;
  batched_capped.batched = true;
  Xoshiro256 arrival_rng = Xoshiro256::stream(31, 0);
  const auto poisson = poisson_arrivals(120, 0.04, arrival_rng);
  const auto bursts = burst_arrivals(3, 25, 500);
  for (const auto& factory :
       {factory_by_name("One-Fail Adaptive"),
        make_dynamic_one_fail_factory()}) {
    SCOPED_TRACE(factory.name);
    for (const auto* arrivals : {&poisson, &bursts}) {
      for (std::uint64_t run = 0; run < 5; ++run) {
        const RunMetrics exact =
            run_single_node(factory, *arrivals, run, 77, exact_capped);
        const RunMetrics batched =
            run_single_node(factory, *arrivals, run, 77, batched_capped);
        EXPECT_EQ(exact.slots, batched.slots);
        EXPECT_EQ(exact.silence_slots, batched.silence_slots);
        EXPECT_EQ(exact.collision_slots, batched.collision_slots);
        EXPECT_EQ(exact.transmissions, batched.transmissions);
        EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                         batched.expected_transmissions);
      }
    }
  }
}

TEST(NodeBatchedEquivalence, WindowProtocolsAreBitIdentical) {
  // The window adapter pre-draws its in-window transmission slot from a
  // private per-station substream keyed by one engine draw at activation
  // (common/rng.hpp, derive_window_offset_stream), so its per-slot
  // probabilities are exact 0s and 1s: every engine-stream consumer
  // (Bernoulli coins, the truncated geometric, the binomial split) is
  // draw-free at degenerate p, both engines consume exactly one engine
  // draw per activated station, and the bulk skip is invisible —
  // bit-identical runs down to the per-message latencies, with real
  // multi-slot stretches exercised *before* stations transmit, not just
  // in sent-window tails.
  Xoshiro256 arrival_rng = Xoshiro256::stream(32, 0);
  // Dense enough that stations overlap and pre-transmission run-ups are
  // routinely skipped.
  const auto arrivals = poisson_arrivals(150, 0.1, arrival_rng);
  for (const char* name :
       {"Exp Back-on/Back-off", "LogLog-Iterated Back-off",
        "Exponential Back-off (r=2)"}) {
    SCOPED_TRACE(name);
    const auto factory = factory_by_name(name);
    for (std::uint64_t run = 0; run < 3; ++run) {
      const RunMetrics exact =
          run_single_node(factory, arrivals, run, 88, exact_options());
      const RunMetrics batched =
          run_single_node(factory, arrivals, run, 88, batched_options());
      EXPECT_EQ(exact.slots, batched.slots);
      EXPECT_EQ(exact.silence_slots, batched.silence_slots);
      EXPECT_EQ(exact.collision_slots, batched.collision_slots);
      EXPECT_EQ(exact.transmissions, batched.transmissions);
      EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                       batched.expected_transmissions);
      EXPECT_EQ(exact.latencies, batched.latencies);
    }
  }
}

}  // namespace
}  // namespace ucr
