// Integration: dynamic (non-batched) arrivals through the per-node engine —
// the paper's Section 6 future-work setting. These tests pin down that the
// substrate handles staggered activations correctly and that the protocols
// remain live under them.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sim/node_engine.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

ProtocolFactory factory_by_name(const std::string& name) {
  for (auto& p : all_protocols()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown protocol: " << name;
  return {};
}

class DynamicArrivals : public ::testing::TestWithParam<std::string> {};

TEST_P(DynamicArrivals, PoissonArrivalsComplete) {
  const auto factory = factory_by_name(GetParam());
  Xoshiro256 arrival_rng(12);
  const auto arrivals = poisson_arrivals(80, 0.05, arrival_rng);
  const AggregateResult res =
      run_node_experiment(factory, arrivals, 3, 13, {});
  EXPECT_EQ(res.incomplete_runs, 0u) << GetParam();
  for (const auto& run : res.details) {
    EXPECT_EQ(run.deliveries, 80u);
  }
}

TEST_P(DynamicArrivals, BurstArrivalsComplete) {
  const auto factory = factory_by_name(GetParam());
  const auto arrivals = burst_arrivals(3, 30, 200);
  const AggregateResult res =
      run_node_experiment(factory, arrivals, 3, 14, {});
  EXPECT_EQ(res.incomplete_runs, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PaperProtocols, DynamicArrivals,
    ::testing::Values("One-Fail Adaptive", "Exp Back-on/Back-off",
                      "LogLog-Iterated Back-off"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DynamicArrivalsDetail, LatenciesArePerMessage) {
  const auto factory = factory_by_name("One-Fail Adaptive");
  const auto arrivals = burst_arrivals(2, 20, 500);
  Xoshiro256 rng(15);
  const NodeFactory node_factory = [&](Xoshiro256& r) {
    return factory.node(40, r);
  };
  EngineOptions options;
  options.record_latencies = true;
  const RunMetrics run =
      run_node_engine(node_factory, arrivals, rng, options);
  ASSERT_TRUE(run.completed);
  ASSERT_EQ(run.latencies.size(), 40u);
  for (const auto l : run.latencies) {
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, run.slots);
  }
}

TEST(DynamicArrivalsDetail, WellSeparatedBurstsBehaveLikeTwoBatches) {
  // With a gap far larger than the per-burst makespan, each burst is an
  // independent batched instance; makespan ~ gap + makespan(second burst).
  const auto factory = factory_by_name("Exp Back-on/Back-off");
  const std::uint64_t burst = 25;
  const std::uint64_t gap = 5000;
  const auto arrivals = burst_arrivals(2, burst, gap);
  const AggregateResult two =
      run_node_experiment(factory, arrivals, 5, 16, {});
  ASSERT_EQ(two.incomplete_runs, 0u);
  const AggregateResult one =
      run_node_experiment(factory, batched_arrivals(burst), 5, 17, {});
  // Second burst starts at `gap`; total ~ gap + one-burst makespan.
  EXPECT_NEAR(two.makespan.mean, static_cast<double>(gap) + one.makespan.mean,
              0.5 * one.makespan.mean + 100.0);
}

}  // namespace
}  // namespace ucr
