// Experiment runner: repeats runs with independent seeds and aggregates.
//
// A ProtocolFactory bundles the three engine views of one named protocol
// configuration. Factories receive k because two of the paper's algorithms
// are parameterized by knowledge of (a bound on) k: Log-Fails Adaptive
// needs epsilon ~= 1/(k+1) and the known-k genie needs k itself. The
// knowledge-free protocols simply ignore the argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"

namespace ucr {

/// The three engine views of one protocol configuration. Exactly one of
/// `fair_slot` / `window` must be set (for the aggregate engine); `node`
/// should be set whenever the per-node engine or dynamic workloads are used.
struct ProtocolFactory {
  std::string name;
  std::function<std::unique_ptr<FairSlotProtocol>(std::uint64_t k)> fair_slot;
  std::function<std::unique_ptr<WindowSchedule>(std::uint64_t k)> window;
  std::function<std::unique_ptr<NodeProtocol>(std::uint64_t k, Xoshiro256& rng)>
      node;

  bool has_fair() const {
    return static_cast<bool>(fair_slot) || static_cast<bool>(window);
  }
};

/// Aggregated outcome of `runs` independent executions at one k.
struct AggregateResult {
  std::string protocol;
  std::uint64_t k = 0;
  std::uint64_t runs = 0;
  std::uint64_t incomplete_runs = 0;  ///< runs stopped by the slot cap
  Summary makespan;                   ///< slots (capped value for incomplete)
  Summary ratio;                      ///< slots / k
  /// Percentiles of the per-message latencies pooled across all runs:
  /// quantile_sorted() of the sorted pool, exactly, for any run order or
  /// thread count. Only the per-node engines record latencies, and only
  /// under EngineOptions::record_latencies; all three stay 0 otherwise.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Energy accounting (docs/SCENARIOS.md): mean transmissions per
  /// station per run, averaged over runs — exact counts where the engine
  /// samples them (node engines, window engine), the expected count
  /// otherwise (the O(1)-categorical fair engine). The GreenPod-style
  /// per-station budget view of the same sweeps.
  double energy_mean = 0.0;
  /// Max over runs of the run's largest per-station transmission count
  /// (RunMetrics::max_station_transmissions). Exact in the node engine's
  /// exact mode; a materialized-slots lower bound in its batched mode; 0
  /// on the fair engines, which do not track stations.
  double energy_max = 0.0;
  std::vector<RunMetrics> details;    ///< one entry per run
};

/// One execution of a fair protocol at batch size k through the aggregate
/// engine, seeded as stream(seed, run_index). This is the unit of work the
/// serial experiment loops and the parallel SweepRunner (sim/sweep.hpp)
/// share: a (seed, run_index) pair fully determines the result, so
/// scheduling order and thread count cannot change any output.
RunMetrics run_single_fair(const ProtocolFactory& factory, std::uint64_t k,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options);

/// One execution through the per-node engine, seeded as
/// stream(seed, run_index). EngineOptions::batched selects its batched
/// mode (bulk-skipped stationary stretches; same law, different RNG path
/// wherever a stretch is skipped).
RunMetrics run_single_node(const ProtocolFactory& factory,
                           const ArrivalPattern& arrivals,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options);

/// Folds per-run metrics (in run order) into the aggregate summary.
AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs);

/// Runs `runs` executions of a fair protocol at batch size k through the
/// aggregate engine, with run r seeded as stream(seed, r).
AggregateResult run_fair_experiment(const ProtocolFactory& factory,
                                    std::uint64_t k, std::uint64_t runs,
                                    std::uint64_t seed,
                                    const EngineOptions& options);

/// Same, but through the per-node engine (any protocol with a `node`
/// factory; arbitrary arrival pattern).
AggregateResult run_node_experiment(const ProtocolFactory& factory,
                                    const ArrivalPattern& arrivals,
                                    std::uint64_t runs, std::uint64_t seed,
                                    const EngineOptions& options);

/// Standard k sweep of the paper's evaluation: powers of ten from 10 to
/// `k_max` inclusive (k_max itself included even if not a power of ten).
std::vector<std::uint64_t> paper_k_sweep(std::uint64_t k_max);

}  // namespace ucr
