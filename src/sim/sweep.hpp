// Sweep cells and their unit of work.
//
// A sweep is a grid of experiment cells (protocol x k x arrival pattern x
// seed); each cell repeats `runs` independent executions. exp::run
// (exp/run.hpp) flattens a compiled grid into (cell, run) work items,
// executes them on a ThreadPool and hands the cells to its sinks in grid
// order.
//
// Determinism guarantee: run r of a cell is seeded Xoshiro256::stream(seed,
// r) — the substream derivation the serial runner has always used — and
// every work item writes its RunMetrics into a pre-assigned slot. Scheduling
// order, work stealing and thread count therefore cannot influence any
// output bit: exp::run with 1 thread, with N threads, and the serial
// run_fair_experiment / run_node_experiment loops all produce identical
// results (tests/exp/run_test.cpp pins this, down to CSV bytes).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/runner.hpp"

namespace ucr {

/// One cell of a sweep grid.
struct SweepPoint {
  ProtocolFactory factory;
  /// Batch size for the fair engine; ignored when `arrivals` drives a
  /// per-node run (k is then arrivals.size()).
  std::uint64_t k = 0;
  /// Non-empty => run through the per-node engine on this pattern.
  ArrivalPattern arrivals;
  /// Heterogeneous-workload cell: when set, run r executes on the per-node
  /// engine with the pattern arrivals_per_run(r). The generator must be a
  /// pure function of r (it may be called from any worker thread), which
  /// keeps the determinism contract: the workload of (cell, run) is fixed
  /// before scheduling happens. Takes precedence over `arrivals`; `k`
  /// should be set to the per-run message count for work sizing.
  std::function<ArrivalPattern(std::uint64_t run)> arrivals_per_run;
  std::uint64_t runs = 10;
  std::uint64_t seed = 2011;
  EngineOptions options;

  /// Fair-engine cell.
  static SweepPoint fair(ProtocolFactory factory, std::uint64_t k,
                         std::uint64_t runs, std::uint64_t seed,
                         const EngineOptions& options = {});

  /// Per-node-engine cell.
  static SweepPoint node(ProtocolFactory factory, ArrivalPattern arrivals,
                         std::uint64_t runs, std::uint64_t seed,
                         const EngineOptions& options = {});

  /// Per-node-engine cell whose workload is re-sampled per run (dynamic
  /// arrival studies: every run sees its own Poisson draw). `k` is the
  /// per-run message count (generator(r).size() for every r).
  static SweepPoint node_per_run(
      ProtocolFactory factory, std::uint64_t k,
      std::function<ArrivalPattern(std::uint64_t run)> generator,
      std::uint64_t runs, std::uint64_t seed,
      const EngineOptions& options = {});

  /// The k this cell's aggregate reports: the explicit batch size, or the
  /// materialized pattern's message count for fixed-pattern node cells.
  std::uint64_t cell_k() const {
    return arrivals.empty() ? k : arrivals.size();
  }
};

/// One run of one cell — the shared work unit of exp::run and of any
/// driver executing a cell on its own (exp/cell_task.hpp). Run r of a
/// point is seeded stream(point.seed, r), so (point, r) fully determines
/// the result: executing a cell serially, in a pool, or on another
/// machine produces identical metrics.
RunMetrics run_sweep_point_run(const SweepPoint& point, std::uint64_t run);

}  // namespace ucr
