#include "sim/runner.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace ucr {

namespace {

/// Sets result.latency_p50/p95/p99 to quantile_sorted() of the sorted pool
/// of every run's latencies, without building that pool. uint64 -> double
/// is monotone, so the pooled doubles' order statistics are the converted
/// order statistics of the integers. A histogram of `value >> shift` (at
/// most 2^16 buckets) locates each rank; when shift > 0 a bucket holds
/// several values, and nth_element over that bucket's values alone picks
/// the rank. Leaves all three at 0 when no run recorded a latency.
void pool_latency_percentiles(const std::vector<RunMetrics>& runs,
                              AggregateResult& result) {
  std::uint64_t n = 0;
  std::uint64_t max = 0;
  for (const RunMetrics& m : runs) {
    n += m.latencies.size();
    for (const std::uint64_t latency : m.latencies) {
      max = std::max(max, latency);
    }
  }
  if (n == 0) return;
  const int shift = std::max(0, static_cast<int>(std::bit_width(max)) - 16);
  std::vector<std::uint64_t> histogram((max >> shift) + 1, 0);
  for (const RunMetrics& m : runs) {
    for (const std::uint64_t latency : m.latencies) {
      ++histogram[latency >> shift];
    }
  }

  std::uint64_t gathered_bucket = histogram.size();  // none yet
  std::vector<std::uint64_t> gathered;
  // The rank-th smallest pooled latency (0-based), as a double.
  const auto order_statistic = [&](std::uint64_t rank) {
    std::uint64_t bucket = 0;
    std::uint64_t below = 0;
    while (below + histogram[bucket] <= rank) below += histogram[bucket++];
    if (shift == 0) return static_cast<double>(bucket);
    if (bucket != gathered_bucket) {
      gathered.clear();
      for (const RunMetrics& m : runs) {
        for (const std::uint64_t latency : m.latencies) {
          if ((latency >> shift) == bucket) gathered.push_back(latency);
        }
      }
      gathered_bucket = bucket;
    }
    const auto nth =
        gathered.begin() + static_cast<std::ptrdiff_t>(rank - below);
    std::nth_element(gathered.begin(), nth, gathered.end());
    return static_cast<double>(*nth);
  };
  // quantile_sorted's arithmetic, term for term, over the virtual pool.
  const auto quantile = [&](double q) {
    if (n == 1) return order_statistic(0);
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::uint64_t>(pos);
    const std::uint64_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return order_statistic(lo) * (1.0 - frac) + order_statistic(hi) * frac;
  };
  result.latency_p50 = quantile(0.50);
  result.latency_p95 = quantile(0.95);
  result.latency_p99 = quantile(0.99);
}

}  // namespace

AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs) {
  AggregateResult result;
  result.protocol = std::move(name);
  result.k = k;
  result.runs = runs.size();
  std::vector<double> makespans;
  std::vector<double> ratios;
  makespans.reserve(runs.size());
  ratios.reserve(runs.size());
  double energy_sum = 0.0;
  for (const RunMetrics& m : runs) {
    if (!m.completed) ++result.incomplete_runs;
    makespans.push_back(static_cast<double>(m.slots));
    ratios.push_back(m.ratio());
    // Per-station energy: exact transmission counts where the engine
    // sampled them, the expected count otherwise (a completed run always
    // has transmissions >= k > 0 when counted exactly).
    const double total_tx = m.transmissions > 0
                                ? static_cast<double>(m.transmissions)
                                : m.expected_transmissions;
    energy_sum += total_tx / static_cast<double>(m.k);
    result.energy_max =
        std::max(result.energy_max,
                 static_cast<double>(m.max_station_transmissions));
  }
  if (!runs.empty()) {
    result.energy_mean = energy_sum / static_cast<double>(runs.size());
  }
  result.makespan = summarize(makespans);
  result.ratio = summarize(ratios);
  // Pooled across runs: the per-message latency envelope of the cell,
  // persisted per row so dynamic-arrival archives carry their tail
  // behaviour without the O(k * runs) details.
  pool_latency_percentiles(runs, result);
  result.details = std::move(runs);
  return result;
}

RunMetrics run_single_fair(const ProtocolFactory& factory, std::uint64_t k,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options) {
  UCR_REQUIRE(factory.has_fair(),
              "protocol '" + factory.name + "' has no fair-engine view");
  Xoshiro256 rng = Xoshiro256::stream(seed, run_index);
  if (factory.fair_slot) {
    return run_fair_slot_engine(*factory.fair_slot(k), k, rng, options);
  }
  return run_fair_window_engine(*factory.window(k), k, rng, options);
}

RunMetrics run_single_node(const ProtocolFactory& factory,
                           const ArrivalPattern& arrivals,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options) {
  UCR_REQUIRE(static_cast<bool>(factory.node),
              "protocol '" + factory.name + "' has no per-node view");
  Xoshiro256 rng = Xoshiro256::stream(seed, run_index);
  return factory.node.run(arrivals, rng, options);
}

AggregateResult run_fair_experiment(const ProtocolFactory& factory,
                                    std::uint64_t k, std::uint64_t runs,
                                    std::uint64_t seed,
                                    const EngineOptions& options) {
  UCR_REQUIRE(factory.has_fair(),
              "protocol '" + factory.name + "' has no fair-engine view");
  UCR_REQUIRE(runs > 0, "at least one run required");

  std::vector<RunMetrics> all;
  all.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    all.push_back(run_single_fair(factory, k, r, seed, options));
  }
  return aggregate_runs(factory.name, k, std::move(all));
}

AggregateResult run_node_experiment(const ProtocolFactory& factory,
                                    const ArrivalPattern& arrivals,
                                    std::uint64_t runs, std::uint64_t seed,
                                    const EngineOptions& options) {
  UCR_REQUIRE(static_cast<bool>(factory.node),
              "protocol '" + factory.name + "' has no per-node view");
  UCR_REQUIRE(runs > 0, "at least one run required");

  std::vector<RunMetrics> all;
  all.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    all.push_back(run_single_node(factory, arrivals, r, seed, options));
  }
  return aggregate_runs(factory.name, arrivals.size(), std::move(all));
}

std::vector<std::uint64_t> paper_k_sweep(std::uint64_t k_max) {
  UCR_REQUIRE(k_max >= 10, "the paper's sweep starts at k = 10");
  std::vector<std::uint64_t> ks;
  std::uint64_t k = 10;
  for (;;) {
    ks.push_back(k);
    if (k > k_max / 10) break;  // next power of ten would exceed k_max
    k *= 10;
  }
  if (ks.back() != k_max) {
    // k_max is not a power of ten: include it as the final point.
    ks.push_back(k_max);
  }
  return ks;
}

}  // namespace ucr
