// The `slow`-labeled half of batched_law_test.cpp: the same two-sample
// Kolmogorov–Smirnov comparison of exact and batched fair slot runs (the
// thinned step and the cycle step) at k = 10^4, where exact mode's
// O(slots) cost puts 2000 runs a side past the tier-1 budget of an
// unoptimized build.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

class ThinnedStepLaw : public ::testing::TestWithParam<std::string> {};

TEST_P(ThinnedStepLaw, MatchesExactModeInDistributionAtK10000) {
  const std::vector<ProtocolFactory> catalogue = all_protocols();
  testutil::expect_same_distribution(find_protocol(catalogue, GetParam()),
                                     10000, 2000);
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
