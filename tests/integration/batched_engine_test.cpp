// Integration: the batched fair-engine fast path (EngineOptions::batched)
// induces the same law of outcomes as the exact aggregate engines, for
// every protocol in the catalogue. The batched path consumes randomness
// differently (geometric run-lengths and direct slot choices instead of
// per-slot draws), so individual runs differ; equivalence is checked
// statistically via the shared Welch-style helper in
// tests/common/stat_equiv.hpp — mean and median makespan within a
// tolerance that covers Monte-Carlo noise but catches systematic modeling
// errors — rather than by re-pinning goldens.
//
// The thinned step of the protocols that keep the default one-slot hint
// and the cycle step of Log-Fails Adaptive are also checked on whole
// distributions (batched_law_test.cpp). The
// wall-clock floor of the fast path lives in timing_floor_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "protocols/exp_backoff.hpp"
#include "sim/runner.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

ProtocolFactory factory_by_name(const std::string& name) {
  for (auto& p : all_protocols()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown protocol: " << name;
  return {};
}

EngineOptions batched_options() {
  EngineOptions options;
  options.batched = true;
  return options;
}

class BatchedEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchedEquivalence, MeanAndMedianMakespanAgree) {
  const auto factory = factory_by_name(GetParam());
  const std::uint64_t k = 60;
  const std::uint64_t runs = 120;

  const AggregateResult exact =
      run_fair_experiment(factory, k, runs, 1111, {});
  const AggregateResult batched =
      run_fair_experiment(factory, k, runs, 2222, batched_options());

  testutil::expect_makespan_agreement(exact, batched, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, BatchedEquivalence,
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

TEST(BatchedEquivalence, SparseWindowRegimeAgrees) {
  // Larger k drives exponential back-off through the batched engine's
  // sparse windows (bitmap walk and sorted walk), which k = 60 barely
  // touches.
  const auto factory = factory_by_name("Exponential Back-off (r=2)");
  const std::uint64_t k = 3000;
  const std::uint64_t runs = 40;
  const AggregateResult exact = run_fair_experiment(factory, k, runs, 31, {});
  const AggregateResult batched =
      run_fair_experiment(factory, k, runs, 32, batched_options());
  // Fewer runs than the parametrised suite, so a wider 3% systematic
  // allowance.
  testutil::expect_makespan_agreement(exact, batched, "sparse-window", 0.03);
}

}  // namespace
}  // namespace ucr
