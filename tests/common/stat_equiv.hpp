// Shared statistical-equivalence checks between an exact engine and its
// batched fast path. Both batched-equivalence suites (fair-engine and
// per-node) compare independently seeded run ensembles of the same
// workload, so the check is Welch-style: means must agree within 4
// combined standard errors plus a small systematic allowance — wide
// enough for Monte-Carlo noise, tight enough that a modeling error in a
// stretch sampler (a missed collision class, a biased run length) fails
// deterministically at the shipped run counts. The batched fair slot
// engine's thinned step is held to a stronger, distribution-level check:
// a two-sample Kolmogorov–Smirnov test (expect_same_distribution).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "sim/runner.hpp"

namespace ucr::testutil {

inline double standard_error(const Summary& summary) {
  return summary.stddev / std::sqrt(static_cast<double>(summary.count));
}

/// Mean and median makespan of the two ensembles agree within
/// 4 * combined SE + systematic_frac * exact mean (the median gets twice
/// the tolerance: its standard error is within a small factor of the
/// mean's for these unimodal makespan distributions). `systematic_frac`
/// is 0.02 by default; sparse-window regimes with fewer runs use 0.03.
inline void expect_makespan_agreement(const AggregateResult& exact,
                                      const AggregateResult& batched,
                                      const std::string& label,
                                      double systematic_frac = 0.02) {
  ASSERT_EQ(exact.incomplete_runs, 0u) << label;
  ASSERT_EQ(batched.incomplete_runs, 0u) << label;
  const double tol =
      4.0 * std::hypot(standard_error(exact.makespan),
                       standard_error(batched.makespan)) +
      systematic_frac * exact.makespan.mean;
  EXPECT_NEAR(exact.makespan.mean, batched.makespan.mean, tol)
      << label << ": exact=" << exact.makespan.mean
      << " batched=" << batched.makespan.mean;
  EXPECT_NEAR(exact.makespan.median, batched.makespan.median, 2.0 * tol)
      << label << ": exact median=" << exact.makespan.median
      << " batched median=" << batched.makespan.median;
}

/// Collision counts of an ensemble. Throws on a run that did not sample
/// the silence/collision split (RunMetrics::silence_collision_sampled),
/// whose zeros are no count to compare.
inline Summary collision_summary(const AggregateResult& result) {
  std::vector<double> values;
  values.reserve(result.details.size());
  for (const auto& run : result.details) {
    UCR_REQUIRE(run.silence_collision_sampled,
                "collision counts compared on a run that did not sample "
                "the silence/collision split");
    values.push_back(static_cast<double>(run.collision_slots));
  }
  return summarize(values);
}

/// Mean collision-slot counts agree within 4 * combined SE + 5% + 2
/// slots. Collisions are the protocol-dynamics-sensitive outcome that a
/// makespan dominated by the arrival span would not catch; the additive
/// 2 covers near-zero collision counts where a relative allowance
/// vanishes.
inline void expect_collision_agreement(const AggregateResult& exact,
                                       const AggregateResult& batched,
                                       const std::string& label) {
  const Summary exact_coll = collision_summary(exact);
  const Summary batched_coll = collision_summary(batched);
  const double tol = 4.0 * std::hypot(standard_error(exact_coll),
                                      standard_error(batched_coll)) +
                     0.05 * exact_coll.mean + 2.0;
  EXPECT_NEAR(exact_coll.mean, batched_coll.mean, tol)
      << label << ": exact collisions=" << exact_coll.mean
      << " batched collisions=" << batched_coll.mean;
}

/// Per-run quantile of the per-message latency distribution, summarized
/// across runs. Requires the ensemble to have been run with
/// EngineOptions::record_latencies (RunMetrics::latencies is empty
/// otherwise and the returned summary has count 0).
inline Summary latency_quantile_summary(const AggregateResult& result,
                                        double q) {
  std::vector<double> values;
  values.reserve(result.details.size());
  for (const auto& run : result.details) {
    if (run.latencies.empty()) continue;
    std::vector<double> sorted(run.latencies.begin(), run.latencies.end());
    std::sort(sorted.begin(), sorted.end());
    values.push_back(quantile_sorted(sorted, q));
  }
  return summarize(values);
}

/// Per-message timing agreement: the per-run latency p50 and p95 means of
/// the two ensembles agree within 4 * combined SE + 3% + 2 slots.
/// Makespan catches only the last delivery and collisions only the
/// contention envelope — a stretch sampler that displaced deliveries
/// *within* runs (per-message timing skew from slot skipping) could pass
/// both while shifting every latency; the percentile check closes that
/// hole. The additive 2 covers near-instant-delivery cells where a
/// relative allowance vanishes.
inline void expect_latency_agreement(const AggregateResult& exact,
                                     const AggregateResult& batched,
                                     const std::string& label) {
  for (const double q : {0.5, 0.95}) {
    const Summary exact_lat = latency_quantile_summary(exact, q);
    const Summary batched_lat = latency_quantile_summary(batched, q);
    ASSERT_GT(exact_lat.count, 0u)
        << label << ": exact ensemble recorded no latencies (missing "
        << "EngineOptions::record_latencies?)";
    ASSERT_GT(batched_lat.count, 0u)
        << label << ": batched ensemble recorded no latencies (missing "
        << "EngineOptions::record_latencies?)";
    const double tol = 4.0 * std::hypot(standard_error(exact_lat),
                                        standard_error(batched_lat)) +
                       0.03 * exact_lat.mean + 2.0;
    EXPECT_NEAR(exact_lat.mean, batched_lat.mean, tol)
        << label << ": latency p" << static_cast<int>(q * 100)
        << " exact=" << exact_lat.mean << " batched=" << batched_lat.mean;
  }
}

/// The full check used by the per-node suite: makespan plus collisions,
/// plus latency percentiles when both ensembles recorded latencies.
inline void expect_statistical_agreement(const AggregateResult& exact,
                                         const AggregateResult& batched,
                                         const std::string& label,
                                         double systematic_frac = 0.02) {
  expect_makespan_agreement(exact, batched, label, systematic_frac);
  expect_collision_agreement(exact, batched, label);
  if (latency_quantile_summary(exact, 0.5).count > 0 &&
      latency_quantile_summary(batched, 0.5).count > 0) {
    expect_latency_agreement(exact, batched, label);
  }
}

/// Two-sample Kolmogorov–Smirnov statistic: the largest gap between the
/// empirical CDFs of `a` and `b`, taken after each distinct value, so tied
/// values (integer makespans) step both CDFs at once.
inline double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

/// Asymptotic critical value of the two-sample KS statistic at level
/// alpha: sqrt(-ln(alpha/2)/2) · sqrt((n + m)/(n·m)).
inline double ks_critical_value(std::size_t n, std::size_t m, double alpha) {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(m);
  return std::sqrt(-std::log(alpha / 2.0) / 2.0) *
         std::sqrt((nd + md) / (nd * md));
}

/// Makespan and expected transmissions of each run of an ensemble.
struct FairRunSamples {
  std::vector<double> makespan;
  std::vector<double> expected_transmissions;
};

/// `runs` runs of a fair protocol at batch size k, run r seeded as
/// stream(seed, r) (run_single_fair), spread over a thread pool.
inline FairRunSamples sample_fair_runs(const ProtocolFactory& factory,
                                       std::uint64_t k, std::uint64_t runs,
                                       std::uint64_t seed,
                                       const EngineOptions& options) {
  ThreadPool pool;
  std::vector<std::future<RunMetrics>> pending;
  pending.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    pending.push_back(pool.submit([&factory, k, r, seed, &options] {
      return run_single_fair(factory, k, r, seed, options);
    }));
  }
  FairRunSamples samples;
  for (auto& future : pending) {
    const RunMetrics run = future.get();
    UCR_REQUIRE(run.completed, "a sampled run hit the slot cap");
    samples.makespan.push_back(static_cast<double>(run.slots));
    samples.expected_transmissions.push_back(run.expected_transmissions);
  }
  return samples;
}

/// Exact and batched ensembles of `runs` runs each, independently seeded,
/// agree in distribution: the two-sample KS test at level 0.001 accepts
/// on makespan and on expected transmissions.
inline void expect_same_distribution(const ProtocolFactory& factory,
                                     std::uint64_t k, std::uint64_t runs) {
  EngineOptions batched;
  batched.batched = true;
  const FairRunSamples exact = sample_fair_runs(factory, k, runs, 7001, {});
  const FairRunSamples fast = sample_fair_runs(factory, k, runs, 7002, batched);
  const double critical = ks_critical_value(runs, runs, 0.001);
  const double d_makespan = ks_statistic(exact.makespan, fast.makespan);
  const double d_energy =
      ks_statistic(exact.expected_transmissions, fast.expected_transmissions);
  std::printf("[ batched-law ] %s k=%llu: KS D makespan %.4f, expected "
              "transmissions %.4f, critical %.4f\n",
              factory.name.c_str(), static_cast<unsigned long long>(k),
              d_makespan, d_energy, critical);
  EXPECT_LT(d_makespan, critical) << factory.name << " k=" << k;
  EXPECT_LT(d_energy, critical) << factory.name << " k=" << k;
}

}  // namespace ucr::testutil
