#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/known_k.hpp"

namespace ucr {
namespace {

TEST(PaperKSweep, PowersOfTen) {
  const auto ks = paper_k_sweep(100000);
  const std::vector<std::uint64_t> expected{10, 100, 1000, 10000, 100000};
  EXPECT_EQ(ks, expected);
}

TEST(PaperKSweep, NonPowerEndpointIncluded) {
  const auto ks = paper_k_sweep(50000);
  const std::vector<std::uint64_t> expected{10, 100, 1000, 10000, 50000};
  EXPECT_EQ(ks, expected);
}

TEST(PaperKSweep, MinimumSweep) {
  const auto ks = paper_k_sweep(10);
  EXPECT_EQ(ks, std::vector<std::uint64_t>{10});
  EXPECT_THROW(paper_k_sweep(9), ContractViolation);
}

TEST(RunFairExperiment, AggregatesRuns) {
  const auto factory = make_known_k_factory();
  const AggregateResult res = run_fair_experiment(factory, 50, 8, 77, {});
  EXPECT_EQ(res.k, 50u);
  EXPECT_EQ(res.runs, 8u);
  EXPECT_EQ(res.incomplete_runs, 0u);
  EXPECT_EQ(res.details.size(), 8u);
  EXPECT_GT(res.makespan.mean, 0.0);
  EXPECT_NEAR(res.ratio.mean, res.makespan.mean / 50.0, 1e-9);
  for (const auto& run : res.details) {
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.deliveries, 50u);
  }
}

TEST(RunFairExperiment, DeterministicForSameSeed) {
  const auto factory = make_one_fail_factory();
  const AggregateResult a = run_fair_experiment(factory, 100, 3, 5, {});
  const AggregateResult b = run_fair_experiment(factory, 100, 3, 5, {});
  ASSERT_EQ(a.details.size(), b.details.size());
  for (std::size_t i = 0; i < a.details.size(); ++i) {
    EXPECT_EQ(a.details[i].slots, b.details[i].slots);
  }
}

TEST(RunFairExperiment, DifferentSeedsDiffer) {
  const auto factory = make_one_fail_factory();
  const AggregateResult a = run_fair_experiment(factory, 200, 1, 5, {});
  const AggregateResult b = run_fair_experiment(factory, 200, 1, 6, {});
  EXPECT_NE(a.details[0].slots, b.details[0].slots);
}

TEST(RunFairExperiment, RunsUseIndependentStreams) {
  const auto factory = make_one_fail_factory();
  const AggregateResult res = run_fair_experiment(factory, 200, 4, 9, {});
  // Extremely unlikely that two independent runs coincide exactly.
  bool all_equal = true;
  for (std::size_t i = 1; i < res.details.size(); ++i) {
    if (res.details[i].slots != res.details[0].slots) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(RunFairExperiment, RequiresFairView) {
  ProtocolFactory broken;
  broken.name = "node-only";
  broken.node = node_view<BoxedStation>(
      [](std::uint64_t, Xoshiro256&) { return BoxedStation(nullptr); });
  EXPECT_THROW(run_fair_experiment(broken, 10, 1, 1, {}), ContractViolation);
}

TEST(RunFairExperiment, RequiresPositiveRuns) {
  const auto factory = make_known_k_factory();
  EXPECT_THROW(run_fair_experiment(factory, 10, 0, 1, {}),
               ContractViolation);
}

TEST(RunNodeExperiment, WorksOnBatchedArrivals) {
  const auto factory = make_one_fail_factory();
  const AggregateResult res =
      run_node_experiment(factory, batched_arrivals(30), 3, 11, {});
  EXPECT_EQ(res.runs, 3u);
  EXPECT_EQ(res.incomplete_runs, 0u);
  for (const auto& run : res.details) {
    EXPECT_EQ(run.deliveries, 30u);
  }
}

TEST(AggregateRuns, PoolsLatencyPercentilesAcrossRuns) {
  // Two runs' latencies pool into one sample (1..20): linear-interpolated
  // percentiles p50 = 10.5, p95 = 19.05, p99 = 19.81.
  RunMetrics a;
  RunMetrics b;
  a.completed = b.completed = true;
  a.k = b.k = 10;
  a.slots = b.slots = 20;
  for (std::uint64_t v = 1; v <= 10; ++v) a.latencies.push_back(v);
  for (std::uint64_t v = 11; v <= 20; ++v) b.latencies.push_back(v);
  const AggregateResult res = aggregate_runs("x", 10, {a, b});
  EXPECT_DOUBLE_EQ(res.latency_p50, 10.5);
  EXPECT_NEAR(res.latency_p95, 19.05, 1e-9);
  EXPECT_NEAR(res.latency_p99, 19.81, 1e-9);
}

TEST(AggregateRuns, LatencyPercentilesStayZeroWithoutRecording) {
  RunMetrics a;
  a.completed = true;
  a.k = 5;
  a.slots = 9;
  const AggregateResult res = aggregate_runs("x", 5, {a});
  EXPECT_DOUBLE_EQ(res.latency_p50, 0.0);
  EXPECT_DOUBLE_EQ(res.latency_p95, 0.0);
  EXPECT_DOUBLE_EQ(res.latency_p99, 0.0);
}

/// Folds `latencies` (one vector per run) and checks the pooled
/// percentiles against the reference fold bit for bit: every latency as a
/// double, sorted, then quantile_sorted. Also checks that each run's
/// latencies reach `details` untouched, in delivery order.
void expect_sorted_pool_percentiles(
    const std::vector<std::vector<std::uint64_t>>& latencies) {
  std::vector<RunMetrics> runs(latencies.size());
  std::vector<double> pool;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    runs[r].completed = true;
    runs[r].k = 1;
    runs[r].slots = 1;
    runs[r].latencies = latencies[r];
    for (const std::uint64_t v : latencies[r]) {
      pool.push_back(static_cast<double>(v));
    }
  }
  const AggregateResult res = aggregate_runs("x", 1, runs);
  ASSERT_FALSE(pool.empty());
  std::sort(pool.begin(), pool.end());
  EXPECT_EQ(res.latency_p50, quantile_sorted(pool, 0.50));
  EXPECT_EQ(res.latency_p95, quantile_sorted(pool, 0.95));
  EXPECT_EQ(res.latency_p99, quantile_sorted(pool, 0.99));
  ASSERT_EQ(res.details.size(), latencies.size());
  for (std::size_t r = 0; r < latencies.size(); ++r) {
    EXPECT_EQ(res.details[r].latencies, latencies[r]) << "run " << r;
  }
}

/// `runs` runs of up to `max_size` latencies each (every third run
/// empty), each latency drawn by `draw`.
std::vector<std::vector<std::uint64_t>> random_pool(
    Xoshiro256& rng, std::size_t runs, std::uint64_t max_size,
    const std::function<std::uint64_t(Xoshiro256&)>& draw) {
  std::vector<std::vector<std::uint64_t>> pool(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    if (r % 3 == 1) continue;
    const std::uint64_t size = 1 + rng.next_below(max_size);
    for (std::uint64_t i = 0; i < size; ++i) pool[r].push_back(draw(rng));
  }
  return pool;
}

TEST(AggregateRuns, PooledPercentilesEqualTheSortedPoolBitForBit) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kTwoTo53 = std::uint64_t{1} << 53;
  // Fixed pools: one value, all-equal values (all counted; all kept
  // raw), and runs with empty latencies mixed in.
  expect_sorted_pool_percentiles({{}, {42}, {}});
  expect_sorted_pool_percentiles({{kMax}});
  expect_sorted_pool_percentiles({std::vector<std::uint64_t>(300, 9), {},
                                  std::vector<std::uint64_t>(200, 9)});
  expect_sorted_pool_percentiles(
      {std::vector<std::uint64_t>(500, std::uint64_t{3} << 40)});
  expect_sorted_pool_percentiles({{}, {0, 0, 1}, {}, {}, {2}});

  const std::vector<std::function<std::uint64_t(Xoshiro256&)>> draws = {
      // Below 2^16: every value is counted. Heavily tied.
      [](Xoshiro256& rng) { return rng.next_below(40); },
      [](Xoshiro256& rng) { return rng.next_below(std::uint64_t{1} << 16); },
      // Spread up to 2^40 at every magnitude: most ranks land among the
      // raw values, selected by nth_element.
      [](Xoshiro256& rng) {
        return rng.next_u64() >> (24 + rng.next_below(40));
      },
      // Above 2^53, where neighbouring integers round to one double.
      [&](Xoshiro256& rng) { return kTwoTo53 + rng.next_below(64); },
      [](Xoshiro256& rng) {
        return (std::uint64_t{1} << 60) + rng.next_below(1u << 12);
      },
      [&](Xoshiro256& rng) {
        return rng.next_below(2) == 0 ? rng.next_below(100)
                                      : kMax - rng.next_below(4096);
      },
      // Only the two extremes.
      [&](Xoshiro256& rng) { return rng.next_below(2) == 0 ? 1 : kMax; },
  };
  for (std::size_t d = 0; d < draws.size(); ++d) {
    Xoshiro256 rng = Xoshiro256::stream(2024, d);
    for (int trial = 0; trial < 25; ++trial) {
      SCOPED_TRACE("draw " + std::to_string(d) + ", trial " +
                   std::to_string(trial));
      expect_sorted_pool_percentiles(
          random_pool(rng, 1 + rng.next_below(10), 400, draws[d]));
    }
  }
}

/// Every value of every run as a double, sorted: the pool LatencyPool
/// must match without building.
std::vector<double> sorted_reference(
    const std::vector<std::vector<std::uint64_t>>& runs) {
  std::vector<double> pool;
  for (const auto& run : runs) {
    for (const std::uint64_t v : run) pool.push_back(static_cast<double>(v));
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Checks `pool` against the sorted reference: size, the sorted sample,
/// and quantile() equal to quantile_sorted() bit for bit at fixed and
/// random orders.
void expect_pool_matches(LatencyPool& pool,
                         const std::vector<double>& reference,
                         Xoshiro256& rng) {
  ASSERT_EQ(pool.size(), reference.size());
  ASSERT_FALSE(reference.empty());
  std::vector<double> orders = {0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0};
  for (int i = 0; i < 8; ++i) orders.push_back(rng.next_double());
  for (const double q : orders) {
    EXPECT_EQ(pool.quantile(q), quantile_sorted(reference, q)) << "q " << q;
  }
  // quantile() reorders only the raw values: the multiset is unchanged.
  EXPECT_EQ(pool.sorted_sample(), reference);
}

TEST(LatencyPool, QuantilesEqualTheSortedPoolBitForBit) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kCounted = LatencyPool::kCounted;
  const std::vector<std::function<std::uint64_t(Xoshiro256&)>> draws = {
      // All counted, heavily tied.
      [](Xoshiro256& rng) { return rng.next_below(50); },
      [&](Xoshiro256& rng) { return rng.next_below(kCounted); },
      // Straddling the boundary: kCounted - 1 is counted, kCounted raw.
      [&](Xoshiro256& rng) { return kCounted - 40 + rng.next_below(80); },
      // A counted body and a raw tail.
      [&](Xoshiro256& rng) {
        return rng.next_below(10) == 0 ? kCounted + rng.next_below(1000)
                                       : rng.next_below(100);
      },
      // All raw: far above the boundary, past 2^53, up to the maximum.
      [](Xoshiro256& rng) {
        return (std::uint64_t{1} << 60) + rng.next_below(1u << 12);
      },
      [](Xoshiro256& rng) { return rng.next_u64() >> rng.next_below(48); },
      [&](Xoshiro256& rng) { return rng.next_below(2) == 0 ? 0 : kMax; },
  };
  for (std::size_t d = 0; d < draws.size(); ++d) {
    Xoshiro256 rng = Xoshiro256::stream(2028, d);
    for (int trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE("draw " + std::to_string(d) + ", trial " +
                   std::to_string(trial));
      std::vector<std::vector<std::uint64_t>> runs(1 + rng.next_below(8));
      for (std::size_t r = 0; r < runs.size(); ++r) {
        if (r % 3 == 1) continue;  // some runs record nothing
        const std::uint64_t size = 1 + rng.next_below(300);
        for (std::uint64_t i = 0; i < size; ++i) {
          runs[r].push_back(draws[d](rng));
        }
      }
      LatencyPool pool;
      for (const auto& run : runs) pool.add(run);
      expect_pool_matches(pool, sorted_reference(runs), rng);
    }
  }
}

TEST(LatencyPool, EmptyAndSingleValuePools) {
  LatencyPool empty;
  empty.add(std::vector<std::uint64_t>{});
  empty.merge(LatencyPool());
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.sorted_sample().empty());
  EXPECT_THROW(empty.quantile(0.5), ContractViolation);

  Xoshiro256 rng(5);
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{7}, LatencyPool::kCounted - 1,
        LatencyPool::kCounted, std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE("value " + std::to_string(v));
    LatencyPool single;
    single.add(v);
    single.merge(empty);
    EXPECT_FALSE(single.empty());
    expect_pool_matches(single, {static_cast<double>(v)}, rng);
    EXPECT_THROW(single.quantile(1.5), ContractViolation);
  }
}

TEST(LatencyPool, MergeOrderDoesNotMoveAnyQuantile) {
  Xoshiro256 rng = Xoshiro256::stream(2028, 99);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Per-run pools of different count-table sizes, some with raw values.
    std::vector<std::vector<std::uint64_t>> runs(2 + rng.next_below(7));
    for (auto& run : runs) {
      const std::uint64_t top = std::uint64_t{1} << rng.next_below(20);
      const std::uint64_t size = rng.next_below(200);
      for (std::uint64_t i = 0; i < size; ++i) {
        run.push_back(rng.next_below(top));
      }
    }
    const std::vector<double> reference = sorted_reference(runs);
    if (reference.empty()) continue;
    std::vector<LatencyPool> pools(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) pools[r].add(runs[r]);

    LatencyPool forward;
    for (const LatencyPool& p : pools) forward.merge(p);
    expect_pool_matches(forward, reference, rng);

    LatencyPool backward;
    for (auto p = pools.rbegin(); p != pools.rend(); ++p) backward.merge(*p);
    expect_pool_matches(backward, reference, rng);

    // Pairwise, as a tree: pools merged into pools, then into one.
    std::vector<LatencyPool> level = pools;
    while (level.size() > 1) {
      std::vector<LatencyPool> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        LatencyPool merged = level[i];
        if (i + 1 < level.size()) merged.merge(level[i + 1]);
        next.push_back(std::move(merged));
      }
      level = std::move(next);
    }
    expect_pool_matches(level.front(), reference, rng);

    // Every value added to one pool directly.
    LatencyPool one;
    for (const auto& run : runs) {
      for (const std::uint64_t v : run) one.add(v);
    }
    expect_pool_matches(one, reference, rng);
  }
}

TEST(AggregateRuns, PoolOverloadFoldsThePoolNotTheRunsLatencies) {
  // The runs' latencies are freed before the fold; the pool carries them.
  RunMetrics a;
  RunMetrics b;
  a.completed = b.completed = true;
  a.k = b.k = 10;
  a.slots = b.slots = 20;
  LatencyPool pool;
  for (std::uint64_t v = 1; v <= 20; ++v) pool.add(v);
  const AggregateResult res = aggregate_runs("x", 10, {a, b}, pool);
  EXPECT_DOUBLE_EQ(res.latency_p50, 10.5);
  EXPECT_NEAR(res.latency_p95, 19.05, 1e-9);
  EXPECT_NEAR(res.latency_p99, 19.81, 1e-9);
  EXPECT_EQ(res.latencies.size(), 20u);
  EXPECT_TRUE(res.details[0].latencies.empty());
}

TEST(RunNodeExperiment, RequiresNodeView) {
  ProtocolFactory fair_only;
  fair_only.name = "fair-only";
  fair_only.fair_slot = [](std::uint64_t k) {
    return std::make_unique<KnownKGenie>(k);
  };
  EXPECT_THROW(
      run_node_experiment(fair_only, batched_arrivals(5), 1, 1, {}),
      ContractViolation);
}

}  // namespace
}  // namespace ucr
