// The `slow`-labeled half of batched_law_test.cpp: the same two-sample
// Kolmogorov–Smirnov comparison of exact and batched fair runs (the
// thinned and cycle steps of the slot protocols, the Poisson batch and
// the walks of the window protocols) at k = 10^4, where exact mode's
// O(slots) cost puts 2000 runs a side past the tier-1 budget of an
// unoptimized build.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

void expect_batched_law(const std::string& protocol) {
  const std::vector<ProtocolFactory> catalogue = all_protocols();
  testutil::expect_same_distribution(find_protocol(catalogue, protocol),
                                     10000, 2000);
}

class ThinnedStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK10000) {
  expect_batched_law(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    HintOneProtocols, ThinnedStepLaw,
    ::testing::Values("One-Fail Adaptive", "Log-Fails Adaptive (2)",
                      "Log-Fails Adaptive (10)"),
    param_name);

class WindowStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowStepLaw, MatchesExactModeInDistributionAtK10000) {
  expect_batched_law(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    WindowProtocols, WindowStepLaw,
    ::testing::Values("Exp Back-on/Back-off", "LogLog-Iterated Back-off",
                      "Exponential Back-off (r=2)"),
    param_name);

}  // namespace
}  // namespace ucr
