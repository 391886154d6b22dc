// Parallel parameter-sweep subsystem.
//
// A sweep is a grid of experiment cells (protocol x k x arrival pattern x
// seed); each cell repeats `runs` independent executions. SweepRunner
// flattens the grid into (cell, run) work items and executes them on a
// ThreadPool, then reassembles per-cell aggregates in grid order.
//
// Determinism guarantee: run r of a cell is seeded Xoshiro256::stream(seed,
// r) — the substream derivation the serial runner has always used — and
// every work item writes its RunMetrics into a pre-assigned slot. Scheduling
// order, work stealing and thread count therefore cannot influence any
// output bit: SweepRunner with 1 thread, with N threads, and the serial
// run_fair_experiment / run_node_experiment loops all produce identical
// results (tests/sim/sweep_test.cpp pins this, down to CSV bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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

/// One run of one cell — the shared work unit of SweepRunner and of any
/// driver executing a cell on its own (exp/cell_task.hpp). Run r of a
/// point is seeded stream(point.seed, r), so (point, r) fully determines
/// the result: executing a cell serially, in a pool, or on another
/// machine produces identical metrics.
RunMetrics run_sweep_point_run(const SweepPoint& point, std::uint64_t run);

struct SweepOptions {
  /// Worker threads; 0 means all hardware threads.
  unsigned threads = 0;
};

/// Executes sweep grids across a worker pool. The pool is created per
/// run() call: a SweepRunner is cheap to construct and holds no threads
/// between sweeps.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Runs every (cell, run) work item of the grid and returns one
  /// AggregateResult per cell, in grid order: run_streaming() collecting
  /// every emission. Throws ContractViolation on malformed cells
  /// (runs == 0, missing engine view); an exception thrown inside any
  /// work item (protocol factory or engine) is propagated to the caller
  /// after the remaining items finish.
  std::vector<AggregateResult> run(const std::vector<SweepPoint>& grid) const;

  /// Called once per completed cell, always in grid order.
  using CellCallback =
      std::function<void(std::size_t cell, AggregateResult&& result)>;

  /// Streaming variant of run(): invokes `emit(i, result)` for cell i as
  /// soon as cells 0..i are all complete — i.e. cells are handed out in
  /// grid order, but as a growing prefix while the sweep is still running,
  /// so a consumer can write results out incrementally and the per-run
  /// metrics of emitted cells are released instead of accumulating for the
  /// whole grid. Dispatch is in grid order, which bounds the out-of-order
  /// buffer to roughly the cells concurrently in flight. Thread count
  /// cannot reorder or alter emissions (same determinism contract as
  /// run()).
  /// `emit` runs on worker threads under an internal mutex; if it throws,
  /// the remaining cells are dropped and the exception propagates to the
  /// caller.
  void run_streaming(const std::vector<SweepPoint>& grid,
                     const CellCallback& emit) const;

  /// Effective worker count for this runner's options.
  unsigned threads() const;

 private:
  SweepOptions options_;
};

}  // namespace ucr
