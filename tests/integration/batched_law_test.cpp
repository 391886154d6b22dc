// Integration: the batched fair slot engine's two steps — the thinned
// step of every protocol whose batching hint is the default one slot
// (here One-Fail Adaptive) and the cycle step of both Log-Fails Adaptive
// variants — draw the same law as exact mode, checked on whole
// distributions rather than means: a two-sample Kolmogorov–Smirnov test
// at level 0.001 on makespan and on expected transmissions, 2000
// independently seeded runs a side (tests/common/stat_equiv.hpp). The
// suite keeps the name of the step it was written for. k = 100 is where
// Log-Fails' fail-threshold crossings are densest (its SEARCH and TRACK
// plateaus take tens of slots per message); the k = 10^4 half runs
// under the `slow` label (batched_law_slow_test.cpp).
//
// This test does not catch a 1% error in the thinned step's acceptance
// probability, because One-Fail's estimator re-centres on the true count;
// the analytic first-delivery tests of both steps in
// tests/sim/fair_engine_test.cpp do.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

class ThinnedStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK100) {
  const std::vector<ProtocolFactory> catalogue = all_protocols();
  testutil::expect_same_distribution(find_protocol(catalogue, GetParam()),
                                     100, 2000);
}

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK1000) {
  const std::vector<ProtocolFactory> catalogue = all_protocols();
  testutil::expect_same_distribution(find_protocol(catalogue, GetParam()),
                                     1000, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    HintOneProtocols, ThinnedStepLaw,
    ::testing::Values("One-Fail Adaptive", "Log-Fails Adaptive (2)",
                      "Log-Fails Adaptive (10)"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ucr
