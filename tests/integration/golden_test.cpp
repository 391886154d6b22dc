// Golden determinism regression: EXPERIMENTS.md promises byte-identical
// results across runs and standard libraries, because every measurement
// path uses only the repo's own PRNG and samplers. These tests pin the
// exact makespan of every protocol for one fixed (k, seed) so that any
// change to the RNG, the samplers, an engine, or a protocol's state
// machine that alters simulated trajectories is caught immediately.
//
// If a test here fails after an *intentional* behaviour change, re-derive
// the constant with:
//   ucr_cli --protocol="<name>" --k=1000 --runs=1 --seed=77 --csv=1
// and update EXPERIMENTS.md accordingly.
//
// The digest test holds the files of tests/golden/ to the model version
// (sim/model_version.hpp), so a golden re-recorded without a bump fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"
#include "sim/model_version.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

using Golden = std::pair<std::string, std::uint64_t>;

class GoldenMakespan : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenMakespan, ExactSlotCountAtSeed77) {
  const auto& [name, expected] = GetParam();
  ProtocolFactory factory;
  bool found = false;
  for (auto& p : all_protocols()) {
    if (p.name == name) {
      factory = std::move(p);
      found = true;
    }
  }
  if (!found && name == "Dynamic One-Fail Adaptive") {
    factory = make_dynamic_one_fail_factory();
    found = true;
  }
  ASSERT_TRUE(found) << name;

  const AggregateResult res = run_fair_experiment(factory, 1000, 1, 77, {});
  ASSERT_EQ(res.details.size(), 1u);
  EXPECT_EQ(res.details[0].slots, expected) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, GoldenMakespan,
    ::testing::Values(Golden{"Log-Fails Adaptive (2)", 48316},
                      Golden{"Log-Fails Adaptive (10)", 25872},
                      Golden{"One-Fail Adaptive", 7379},
                      Golden{"Exp Back-on/Back-off", 5415},
                      Golden{"LogLog-Iterated Back-off", 7746},
                      Golden{"Exponential Back-off (r=2)", 14145},
                      Golden{"Known-k genie (1/k)", 2759},
                      Golden{"Dynamic One-Fail Adaptive", 2982}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.first;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(GoldenRng, StreamOutputsPinned) {
  // First outputs of the seeded streams used throughout the harnesses.
  Xoshiro256 base(2011);
  const std::uint64_t first = base.next_u64();
  Xoshiro256 again(2011);
  EXPECT_EQ(again.next_u64(), first);

  // Streams derived from (2011, 0) and (2011, 1) are fixed forever.
  Xoshiro256 s0 = Xoshiro256::stream(2011, 0);
  Xoshiro256 s1 = Xoshiro256::stream(2011, 1);
  const std::uint64_t a = s0.next_u64();
  const std::uint64_t b = s1.next_u64();
  EXPECT_NE(a, b);
  Xoshiro256 s0_again = Xoshiro256::stream(2011, 0);
  EXPECT_EQ(s0_again.next_u64(), a);
}

std::uint64_t fnv1a64(std::uint64_t hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// FNV-1a 64 over the files of tests/golden/ in name order, each as its
// name, a NUL, its bytes and a NUL.
std::uint64_t golden_digest() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(std::string(UCR_REPO_ROOT) + "/tests/golden")) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.filename().string() < b.filename().string();
            });
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    hash = fnv1a64(hash, file.filename().string() + '\0');
    hash = fnv1a64(hash, bytes + '\0');
  }
  return hash;
}

TEST(GoldenFiles, DigestMatchesTheModelVersion) {
  // The golden files pin sample paths, so they may only change together
  // with kModelVersion (sim/model_version.hpp): re-recording one means
  // bumping the version and adding its digest here.
  const std::map<std::uint64_t, std::uint64_t> digests = {
      {1, 0xe700991358495072ULL},
      {2, 0xa26bbcdc92cf723fULL},
      {3, 0x5cefe12a2ef20ff0ULL},
      {4, 0x9738ed463ddad641ULL},
      {5, 0xf6b108e9715382daULL},
  };
  ASSERT_EQ(digests.count(kModelVersion), 1u)
      << "no golden digest recorded for model version " << kModelVersion;
  EXPECT_EQ(golden_digest(), digests.at(kModelVersion))
      << std::hex << "tests/golden/ digest 0x" << golden_digest()
      << ": a golden file changed without a model version bump";
}

}  // namespace
}  // namespace ucr
