// The cache determinism contract, pinned: a run with a cold cache, a run
// replaying a warm cache, and a killed-then-resumed run all produce
// byte-identical streaming output to a plain uncached run — on the
// shipped fig1 and adversarial sweeps (shrunk to test size via the same
// flag-wins overrides CI uses) — and the warm run executes no run at all.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "protocols/known_k.hpp"
#include "sim/observer.hpp"
#include "svc/result_cache.hpp"

namespace ucr::svc {
namespace {

namespace fs = std::filesystem;

exp::SpecFile load_shrunk(const std::string& name) {
  exp::SpecFile file =
      exp::load_spec_file(std::string(UCR_REPO_ROOT) + "/specs/" + name);
  // Shrink to test scale the way CI shrinks shipped specs: override the
  // k grid and runs (flag-wins), keeping every other axis as shipped.
  file.spec.ks = {15, 40};
  file.spec.k_max = 0;
  file.spec.runs = 2;
  return file;
}

/// Streaming output (CSV + JSONL concatenated) of one run.
std::string streamed_output(const exp::ExperimentPlan& plan,
                            const exp::RunOptions& options) {
  std::ostringstream csv_text;
  std::ostringstream jsonl_text;
  exp::CsvStreamSink csv(csv_text);
  exp::JsonlSink jsonl(jsonl_text);
  exp::run(plan, {&csv, &jsonl}, options);
  return csv_text.str() + jsonl_text.str();
}

/// Throws once `limit` cells have been emitted — the in-process stand-in
/// for kill -9 halfway through a sweep.
class KillSwitch final : public exp::ResultSink {
 public:
  explicit KillSwitch(std::size_t limit) : limit_(limit) {}
  void emit(const exp::CellInfo&, const AggregateResult&) override {
    UCR_REQUIRE(emitted_ < limit_, "kill switch");
    ++emitted_;
  }

 private:
  std::size_t limit_;
  std::size_t emitted_ = 0;
};

class CachedRunTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    // One directory per instance: under `ctest -j` the instances run at
    // once, and a shared directory would let one delete the other's cache.
    root_ = fs::path(::testing::TempDir()) /
            (std::string("ucr_cached_run_test_") + GetParam());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  fs::path root_;
};

TEST_P(CachedRunTest, ColdWarmAndResumedRunsAreByteIdentical) {
  const exp::SpecFile file = load_shrunk(GetParam());
  const exp::ExperimentPlan plan =
      exp::compile(file.spec, default_catalogue());
  ASSERT_GE(plan.cells.size(), 6u);

  const std::string plain = streamed_output(plan, {2, nullptr});

  // Cold: empty cache attached, every cell computed and banked.
  ResultCache cache((root_ / "cache").string());
  const std::string cold = streamed_output(plan, {2, &cache});
  EXPECT_EQ(cold, plain);
  EXPECT_EQ(cache.cell_count(plan.spec_hash), plan.cells.size());

  // Warm: every cell replays; not a single work item executes.
  const std::string warm = streamed_output(plan, {2, &cache});
  EXPECT_EQ(warm, plain);

  // Kill/resume: a fresh cache, a run killed after 3 cells, then a rerun.
  ResultCache resumed_cache((root_ / "resume").string());
  {
    std::ostringstream discard;
    exp::CsvStreamSink csv(discard);
    KillSwitch kill(3);
    EXPECT_THROW(
        exp::run(plan, {&kill, &csv}, {2, &resumed_cache}),
        ContractViolation);
  }
  // The killed run banked at least the cells it emitted.
  EXPECT_GE(resumed_cache.cell_count(plan.spec_hash), 3u);
  EXPECT_LT(resumed_cache.cell_count(plan.spec_hash), plan.cells.size());
  const std::string resumed = streamed_output(plan, {2, &resumed_cache});
  EXPECT_EQ(resumed, plain);
}

INSTANTIATE_TEST_SUITE_P(ShippedSpecs, CachedRunTest,
                         ::testing::Values("fig1.spec", "adversarial.spec"));

TEST(CachedRun, ThreadCountDoesNotChangeCacheContentOrOutput) {
  const exp::SpecFile file = load_shrunk("fig1.spec");
  const exp::ExperimentPlan plan =
      exp::compile(file.spec, default_catalogue());
  const fs::path root =
      fs::path(::testing::TempDir()) / "ucr_cached_threads_test";
  fs::remove_all(root);
  ResultCache cache_a((root / "a").string());
  ResultCache cache_b((root / "b").string());
  const std::string one = streamed_output(plan, {1, &cache_a});
  const std::string four = streamed_output(plan, {4, &cache_b});
  EXPECT_EQ(one, four);
  // The records themselves are byte-identical too — the cache can be
  // rsynced between machines with different core counts.
  for (const auto& cell : plan.cells) {
    std::ifstream a(cache_a.record_path(plan.spec_hash, cell.index));
    std::ifstream b(cache_b.record_path(plan.spec_hash, cell.index));
    std::stringstream text_a, text_b;
    text_a << a.rdbuf();
    text_b << b.rdbuf();
    EXPECT_EQ(text_a.str(), text_b.str()) << "cell " << cell.index;
  }
  fs::remove_all(root);
}

TEST(CachedRun, WarmReplayExecutesNothing) {
  // The one protocol counts the instances it builds: every fair run builds
  // exactly one, so the count is the number of runs executed.
  auto built = std::make_shared<std::atomic<std::uint64_t>>(0);
  ProtocolFactory counting = make_known_k_factory();
  counting.fair_slot = [inner = counting.fair_slot, built](std::uint64_t k) {
    built->fetch_add(1, std::memory_order_relaxed);
    return inner(k);
  };
  exp::ExperimentSpec spec;
  spec.runs = 3;
  spec.with_ks({10, 20, 40, 80});
  spec.with_factory(counting);
  const exp::ExperimentPlan plan = exp::compile(spec);
  const fs::path root =
      fs::path(::testing::TempDir()) / "ucr_cached_warm_replay_test";
  fs::remove_all(root);
  ResultCache cache(root.string());

  const std::string cold = streamed_output(plan, {2, &cache});
  EXPECT_EQ(built->load(), spec.runs * plan.cells.size());

  built->store(0);
  const std::string warm = streamed_output(plan, {2, &cache});
  EXPECT_EQ(built->load(), 0u);
  EXPECT_EQ(warm, cold);
  fs::remove_all(root);
}

TEST(CachedRun, ObserverPlansRejectTheCache) {
  exp::ExperimentSpec spec;
  spec.runs = 1;
  spec.with_ks({10});
  spec.with_factory(paper_protocols().front());
  DownsampledSeries observer(1);
  spec.engine_options.observer = &observer;
  const exp::ExperimentPlan plan = exp::compile(spec);
  const fs::path root =
      fs::path(::testing::TempDir()) / "ucr_cached_observer_test";
  fs::remove_all(root);
  ResultCache cache(root.string());
  exp::MemorySink memory;
  EXPECT_THROW(exp::run(plan, {&memory}, {1, &cache}), ContractViolation);
  fs::remove_all(root);
}

}  // namespace
}  // namespace ucr::svc
