#include "sim/runner.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ucr {

void LatencyPool::add(std::uint64_t latency) {
  if (latency >= kCounted) {
    raw_.push_back(latency);
    return;
  }
  if (latency >= counts_.size()) counts_.resize(latency + 1, 0);
  ++counts_[latency];
  ++counted_;
}

void LatencyPool::add(const std::vector<std::uint64_t>& latencies) {
  for (const std::uint64_t latency : latencies) add(latency);
}

void LatencyPool::merge(const LatencyPool& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  counted_ += other.counted_;
  raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.end());
}

std::uint64_t LatencyPool::order_statistic(std::uint64_t rank) {
  if (rank < counted_) {
    std::uint64_t value = 0;
    std::uint64_t below = 0;
    while (below + counts_[value] <= rank) below += counts_[value++];
    return value;
  }
  const auto nth =
      raw_.begin() + static_cast<std::ptrdiff_t>(rank - counted_);
  std::nth_element(raw_.begin(), nth, raw_.end());
  return *nth;
}

double LatencyPool::quantile(double q) {
  UCR_REQUIRE(!empty(), "quantile of an empty latency pool");
  UCR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order out of range");
  // uint64 -> double is monotone, so the pooled doubles' order statistics
  // are the converted order statistics of the integers.
  const auto at = [&](std::uint64_t rank) {
    return static_cast<double>(order_statistic(rank));
  };
  // quantile_sorted's arithmetic, term for term, over the virtual sample.
  const std::uint64_t n = size();
  if (n == 1) return at(0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

std::vector<double> LatencyPool::sorted_sample() const {
  std::vector<double> sample;
  sample.reserve(size());
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    sample.insert(sample.end(), counts_[v], static_cast<double>(v));
  }
  std::vector<std::uint64_t> raw = raw_;
  std::sort(raw.begin(), raw.end());
  for (const std::uint64_t latency : raw) {
    sample.push_back(static_cast<double>(latency));
  }
  return sample;
}

AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs,
                               LatencyPool latencies) {
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
  if (!latencies.empty()) {
    result.latency_p50 = latencies.quantile(0.50);
    result.latency_p95 = latencies.quantile(0.95);
    result.latency_p99 = latencies.quantile(0.99);
  }
  result.latencies = std::move(latencies);
  result.details = std::move(runs);
  return result;
}

AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs) {
  LatencyPool latencies;
  for (const RunMetrics& m : runs) latencies.add(m.latencies);
  return aggregate_runs(std::move(name), k, std::move(runs),
                        std::move(latencies));
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
