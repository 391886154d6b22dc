// Integration: the steps of both batched fair engines draw the same law
// as exact mode, checked on whole distributions rather than means: a
// two-sample Kolmogorov–Smirnov test at level 0.001 on makespan and on
// energy (a slot protocol's expected transmissions, a window protocol's
// exact transmission count), 2000 independently seeded runs a side
// (tests/common/stat_equiv.hpp). The k = 10^4 half runs under the `slow`
// label (batched_law_slow_test.cpp).
//
// Slot protocols: the thinned step of every protocol whose batching hint
// is the default one slot (here One-Fail Adaptive) and the cycle step of
// both Log-Fails Adaptive variants. That suite keeps the name of the
// step it was written for. k = 100 is where Log-Fails' fail-threshold
// crossings are densest (its SEARCH and TRACK plateaus take tens of
// slots per message).
//
// Window protocols: the Poisson batch of the very dense windows (W <=
// pending/8), which every window protocol's first windows take at these
// k, then the bitmap walk and, in Exponential Back-off's doubling
// windows, the sorted walk.
//
// This test does not catch a 1% error in the thinned step's acceptance
// probability, because One-Fail's estimator re-centres on the true count;
// the analytic first-delivery tests of both slot steps in
// tests/sim/fair_engine_test.cpp do. Nor does it see the Poisson batch's
// rare redraws; the replay test there does.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

// Test names from protocol names: every non-alphanumeric character
// becomes '_'.
std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

void expect_batched_law(const std::string& protocol, std::uint64_t k) {
  const std::vector<ProtocolFactory> catalogue = all_protocols();
  testutil::expect_same_distribution(find_protocol(catalogue, protocol), k,
                                     2000);
}

class ThinnedStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK100) {
  expect_batched_law(GetParam(), 100);
}

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK1000) {
  expect_batched_law(GetParam(), 1000);
}

INSTANTIATE_TEST_SUITE_P(
    HintOneProtocols, ThinnedStepLaw,
    ::testing::Values("One-Fail Adaptive", "Log-Fails Adaptive (2)",
                      "Log-Fails Adaptive (10)"),
    param_name);

class WindowStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowStepLaw, MatchesExactModeInDistributionAtK100) {
  expect_batched_law(GetParam(), 100);
}

TEST_P(WindowStepLaw, MatchesExactModeInDistributionAtK1000) {
  expect_batched_law(GetParam(), 1000);
}

INSTANTIATE_TEST_SUITE_P(
    WindowProtocols, WindowStepLaw,
    ::testing::Values("Exp Back-on/Back-off", "LogLog-Iterated Back-off",
                      "Exponential Back-off (r=2)"),
    param_name);

}  // namespace
}  // namespace ucr
