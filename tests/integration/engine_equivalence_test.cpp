// Integration: the O(1)-per-slot fair aggregate engine and the O(m)-per-slot
// per-node engine induce the same law on outcomes for fair protocols under
// batched arrivals (see docs/ARCHITECTURE.md "The engine matrix").
// Checked statistically: mean makespans
// over many seeded runs must agree within a tolerance that generously
// covers Monte-Carlo noise but catches any systematic modeling error
// (e.g. wrong hazard chain, off-by-one in state updates).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/registry.hpp"
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

class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, MeanMakespanAgrees) {
  const auto factory = factory_by_name(GetParam());
  const std::uint64_t k = 60;
  const std::uint64_t runs = 120;

  const AggregateResult fair =
      run_fair_experiment(factory, k, runs, 31337, {});
  const AggregateResult node =
      run_node_experiment(factory, batched_arrivals(k), runs, 424242, {});

  ASSERT_EQ(fair.incomplete_runs, 0u);
  ASSERT_EQ(node.incomplete_runs, 0u);

  // Welch-style comparison: |mean_a - mean_b| within 4 combined standard
  // errors plus a 2% systematic allowance.
  const double se_fair = fair.makespan.stddev / std::sqrt(double(runs));
  const double se_node = node.makespan.stddev / std::sqrt(double(runs));
  const double tol = 4.0 * std::hypot(se_fair, se_node) +
                     0.02 * fair.makespan.mean;
  EXPECT_NEAR(fair.makespan.mean, node.makespan.mean, tol)
      << GetParam() << ": fair=" << fair.makespan.mean
      << " node=" << node.makespan.mean;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, EngineEquivalence,
    ::testing::Values("One-Fail Adaptive", "Exp Back-on/Back-off",
                      "Log-Fails Adaptive (2)", "Log-Fails Adaptive (10)",
                      "LogLog-Iterated Back-off",
                      "Exponential Back-off (r=2)", "Known-k genie (1/k)"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EngineEquivalence, OutcomeCompositionAgreesForGenie) {
  // Beyond the makespan: silence/collision fractions must match too.
  const auto factory = factory_by_name("Known-k genie (1/k)");
  const std::uint64_t k = 50;
  const std::uint64_t runs = 150;
  const AggregateResult fair = run_fair_experiment(factory, k, runs, 7, {});
  const AggregateResult node =
      run_node_experiment(factory, batched_arrivals(k), runs, 8, {});

  auto fraction = [](const AggregateResult& res, auto field) {
    double num = 0.0, den = 0.0;
    for (const auto& run : res.details) {
      num += static_cast<double>(field(run));
      den += static_cast<double>(run.slots);
    }
    return num / den;
  };
  const double silent_fair =
      fraction(fair, [](const RunMetrics& r) { return r.silence_slots; });
  const double silent_node =
      fraction(node, [](const RunMetrics& r) { return r.silence_slots; });
  EXPECT_NEAR(silent_fair, silent_node, 0.03);

  const double coll_fair =
      fraction(fair, [](const RunMetrics& r) { return r.collision_slots; });
  const double coll_node =
      fraction(node, [](const RunMetrics& r) { return r.collision_slots; });
  EXPECT_NEAR(coll_fair, coll_node, 0.03);
}

TEST(EngineEquivalence, WindowTransmissionCountsAgree) {
  // The window engine's exact transmission counting must match the node
  // engine's: both count one transmission per active station per window.
  const auto factory = factory_by_name("Exp Back-on/Back-off");
  const std::uint64_t k = 40;
  const std::uint64_t runs = 60;
  const AggregateResult fair = run_fair_experiment(factory, k, runs, 55, {});
  const AggregateResult node =
      run_node_experiment(factory, batched_arrivals(k), runs, 66, {});

  double tx_fair = 0.0, tx_node = 0.0;
  for (const auto& r : fair.details) tx_fair += double(r.transmissions);
  for (const auto& r : node.details) tx_node += double(r.transmissions);
  tx_fair /= double(runs);
  tx_node /= double(runs);
  EXPECT_NEAR(tx_fair, tx_node, 0.1 * tx_fair);
}

}  // namespace
}  // namespace ucr
