#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "core/one_fail_adaptive.hpp"
#include "core/registry.hpp"
#include "protocols/known_k.hpp"
#include "sim/arrival.hpp"
#include "sim/resultio.hpp"

namespace ucr {
namespace {

std::vector<SweepPoint> small_grid() {
  std::vector<SweepPoint> grid;
  for (const auto& factory : paper_protocols()) {
    for (const std::uint64_t k : {20, 50}) {
      grid.push_back(SweepPoint::fair(factory, k, 4, 2011));
    }
  }
  grid.push_back(
      SweepPoint::node(make_one_fail_factory(), batched_arrivals(25), 3, 7));
  // One batched-engine cell: the fast path must be just as deterministic
  // across thread counts as the exact engines.
  EngineOptions batched;
  batched.batched = true;
  grid.push_back(SweepPoint::fair(make_known_k_factory(), 40, 4, 13, batched));
  return grid;
}

std::string csv_of(const std::vector<AggregateResult>& results) {
  std::vector<AggregateRow> rows;
  for (const auto& r : results) rows.push_back(AggregateRow::from(r));
  std::ostringstream os;
  write_aggregate_csv(os, rows);
  return os.str();
}

TEST(SweepRunner, MatchesSerialExperimentsExactly) {
  const auto factory = make_one_fail_factory();
  const AggregateResult serial =
      run_fair_experiment(factory, 100, 5, 42, {});
  const auto swept =
      SweepRunner(SweepOptions{4}).run({SweepPoint::fair(factory, 100, 5, 42)});
  ASSERT_EQ(swept.size(), 1u);
  ASSERT_EQ(swept[0].details.size(), serial.details.size());
  for (std::size_t r = 0; r < serial.details.size(); ++r) {
    EXPECT_EQ(swept[0].details[r].slots, serial.details[r].slots);
    EXPECT_EQ(swept[0].details[r].deliveries, serial.details[r].deliveries);
  }
  EXPECT_EQ(swept[0].makespan.mean, serial.makespan.mean);
  EXPECT_EQ(swept[0].ratio.mean, serial.ratio.mean);
}

TEST(SweepRunner, ByteIdenticalCsvAcrossThreadCounts) {
  const auto grid = small_grid();
  const auto one = SweepRunner(SweepOptions{1}).run(grid);
  const auto eight = SweepRunner(SweepOptions{8}).run(grid);
  EXPECT_EQ(csv_of(one), csv_of(eight));
}

TEST(SweepRunner, IdenticalPerRunMetricsAcrossThreadCounts) {
  const auto grid = small_grid();
  const auto one = SweepRunner(SweepOptions{1}).run(grid);
  const auto eight = SweepRunner(SweepOptions{8}).run(grid);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t cell = 0; cell < one.size(); ++cell) {
    ASSERT_EQ(one[cell].details.size(), eight[cell].details.size());
    EXPECT_EQ(one[cell].protocol, eight[cell].protocol);
    for (std::size_t r = 0; r < one[cell].details.size(); ++r) {
      EXPECT_EQ(one[cell].details[r].slots, eight[cell].details[r].slots);
      EXPECT_EQ(one[cell].details[r].collision_slots,
                eight[cell].details[r].collision_slots);
    }
  }
}

TEST(SweepRunner, ResultsArriveInGridOrder) {
  const auto grid = small_grid();
  const auto results = SweepRunner(SweepOptions{8}).run(grid);
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    EXPECT_EQ(results[cell].protocol, grid[cell].factory.name);
    const std::uint64_t expected_k = grid[cell].arrivals.empty()
                                         ? grid[cell].k
                                         : grid[cell].arrivals.size();
    EXPECT_EQ(results[cell].k, expected_k);
    EXPECT_EQ(results[cell].runs, grid[cell].runs);
  }
}

TEST(SweepRunner, NodeCellMatchesSerialNodeExperiment) {
  const auto factory = make_one_fail_factory();
  const auto arrivals = batched_arrivals(30);
  const AggregateResult serial =
      run_node_experiment(factory, arrivals, 3, 11, {});
  const auto swept = SweepRunner(SweepOptions{4})
                         .run({SweepPoint::node(factory, arrivals, 3, 11)});
  ASSERT_EQ(swept.size(), 1u);
  ASSERT_EQ(swept[0].details.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(swept[0].details[r].slots, serial.details[r].slots);
  }
}

TEST(SweepRunner, RejectsMalformedCellsBeforeRunning) {
  ProtocolFactory node_only;
  node_only.name = "node-only";
  node_only.node = node_view<BoxedStation>(
      [](std::uint64_t, Xoshiro256&) { return BoxedStation(nullptr); });
  SweepPoint bad = SweepPoint::fair(node_only, 10, 1, 1);
  EXPECT_THROW(SweepRunner().run({bad}), ContractViolation);

  SweepPoint zero_runs = SweepPoint::fair(make_known_k_factory(), 10, 0, 1);
  EXPECT_THROW(SweepRunner().run({zero_runs}), ContractViolation);

  ProtocolFactory fair_only = make_known_k_factory();
  fair_only.node = nullptr;
  SweepPoint bad_node =
      SweepPoint::node(fair_only, batched_arrivals(5), 1, 1);
  EXPECT_THROW(SweepRunner().run({bad_node}), ContractViolation);
}

TEST(SweepRunner, PropagatesWorkItemExceptions) {
  ProtocolFactory throwing;
  throwing.name = "throwing";
  throwing.fair_slot =
      [](std::uint64_t) -> std::unique_ptr<FairSlotProtocol> {
    throw std::runtime_error("factory exploded");
  };
  std::vector<SweepPoint> grid{
      SweepPoint::fair(make_known_k_factory(), 20, 2, 1),
      SweepPoint::fair(throwing, 20, 2, 1)};
  EXPECT_THROW(SweepRunner(SweepOptions{4}).run(grid), std::runtime_error);
}

TEST(SweepRunner, BatchedCellsMatchSerialBatchedRuns) {
  const auto factory = make_known_k_factory();
  EngineOptions batched;
  batched.batched = true;
  const AggregateResult serial =
      run_fair_experiment(factory, 120, 5, 42, batched);
  const auto swept = SweepRunner(SweepOptions{4}).run(
      {SweepPoint::fair(factory, 120, 5, 42, batched)});
  ASSERT_EQ(swept.size(), 1u);
  for (std::size_t r = 0; r < serial.details.size(); ++r) {
    EXPECT_EQ(swept[0].details[r].slots, serial.details[r].slots);
  }
}

TEST(SweepRunner, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(SweepRunner().threads(), 1u);
  EXPECT_EQ(SweepRunner(SweepOptions{3}).threads(), 3u);
}

TEST(SweepRunner, StreamingEmitsEveryCellInGridOrder) {
  const auto grid = small_grid();
  const auto collected = SweepRunner(SweepOptions{1}).run(grid);

  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::size_t> order;
    std::vector<AggregateResult> streamed(grid.size());
    SweepRunner(SweepOptions{threads})
        .run_streaming(grid,
                       [&](std::size_t cell, AggregateResult&& result) {
                         order.push_back(cell);
                         streamed[cell] = std::move(result);
                       });
    ASSERT_EQ(order.size(), grid.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i);  // grid order, not completion order
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(streamed[i].makespan.mean, collected[i].makespan.mean);
      EXPECT_EQ(streamed[i].details.size(), collected[i].details.size());
    }
  }
}

TEST(SweepRunner, StreamingPropagatesSinkExceptions) {
  const auto grid = small_grid();
  EXPECT_THROW(SweepRunner(SweepOptions{2}).run_streaming(
                   grid,
                   [](std::size_t cell, AggregateResult&&) {
                     if (cell == 1) throw std::runtime_error("sink failed");
                   }),
               std::runtime_error);
}

TEST(SweepRunner, PerRunArrivalGeneratorIsDeterministic) {
  // A node_per_run cell: every run gets its own pattern, derived purely
  // from the run index — so results are identical for any thread count.
  const auto factory = make_one_fail_factory();
  const auto generator = [](std::uint64_t run) {
    // Staggered arrivals whose shape depends on the run.
    ArrivalPattern pattern;
    for (std::uint64_t i = 0; i < 20; ++i) {
      pattern.push_back(i * (1 + run % 3));
    }
    return pattern;
  };
  // One-Fail Adaptive livelocks on some of these staggered patterns; the
  // cap keeps those runs short without changing any completing run.
  EngineOptions options;
  options.max_slots = 200000;
  const auto point =
      SweepPoint::node_per_run(factory, 20, generator, 6, 11, options);
  const auto serial = SweepRunner(SweepOptions{1}).run({point});
  const auto parallel = SweepRunner(SweepOptions{4}).run({point});
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(serial[0].details.size(), 6u);
  EXPECT_EQ(serial[0].k, 20u);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(serial[0].details[r].slots, parallel[0].details[r].slots);
  }
  // Runs with different workloads genuinely differ from a same-workload
  // cell (the generator is actually consulted).
  const auto uniform = SweepRunner(SweepOptions{1}).run(
      {SweepPoint::node(factory, generator(0), 6, 11, options)});
  bool any_difference = false;
  for (std::size_t r = 0; r < 6; ++r) {
    any_difference |=
        serial[0].details[r].slots != uniform[0].details[r].slots;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SweepRunner, PerRunCellRequiresNodeView) {
  ProtocolFactory fair_only = make_known_k_factory();
  fair_only.node = nullptr;
  const auto point = SweepPoint::node_per_run(
      fair_only, 10, [](std::uint64_t) { return batched_arrivals(10); }, 2,
      1);
  EXPECT_THROW(SweepRunner().run({point}), ContractViolation);
}

}  // namespace
}  // namespace ucr
