// run(): ExperimentPlan -> CellTask[] -> ResultSink(s).
//
// The end of the pipeline and the only code that turns a plan into work.
// The plan is lifted into per-cell tasks (exp/cell_task.hpp); every run of
// every cell to compute becomes one (cell, run) work item on a ThreadPool.
// An item pools its run's latencies (LatencyPool, sim/runner.hpp) and
// frees the run's latency vector, so a cell recording latencies holds
// O(threads · k) latency memory, not O(runs · k). The last run of a cell
// merges its runs' pools and folds it, and every completed cell is pushed
// to each sink as soon as the grid prefix up to it is done — in grid
// order, with bit-identical content for any thread count and completion
// order (the sim/sweep.hpp determinism contract).
//
// Attaching a CellResultStore makes the driver resumable: tasks whose
// (spec_hash, cell_index) key is already in the store replay the cached
// aggregate into the sinks without executing anything, and every freshly
// computed cell is stored *before* it is emitted — so a run killed after
// N cells has banked those N cells, and re-running the same spec against
// the same store streams them back and computes only the rest, with
// output byte-identical to an uninterrupted cold run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/cell_task.hpp"
#include "exp/plan.hpp"
#include "exp/sink.hpp"

namespace ucr::exp {

/// Persistence hook for completed cells, keyed by the task's provenance
/// pair (spec_hash, cell_index). The on-disk implementation is
/// svc::ResultCache (svc/result_cache.hpp); this interface keeps the exp
/// layer free of its storage format. Implementations must be safe to call
/// from worker threads under run()'s emission serialization (calls are
/// never concurrent with each other).
class CellResultStore {
 public:
  virtual ~CellResultStore() = default;

  /// Returns the cached aggregate of (spec_hash, cell_index), or nullopt
  /// when the cell has not been stored. Implementations should throw
  /// (loudly) on corrupt or schema-stale records rather than return
  /// nullopt — silently recomputing would mask archive rot.
  virtual std::optional<AggregateResult> load(const std::string& spec_hash,
                                              std::size_t cell_index) = 0;

  /// Persists a completed cell. Called once per fresh cell, before the
  /// cell is emitted to any sink.
  virtual void store(const CellTask& task,
                     const AggregateResult& result) = 0;
};

struct RunOptions {
  /// Worker threads; 0 means all hardware threads.
  unsigned threads = 0;
  /// When set, cells already present in the store are replayed instead of
  /// executed and fresh cells are stored before emission (see above).
  /// Cached replay carries no per-run details and no latency pool
  /// (AggregateResult::details and ::latencies are empty) and never fires
  /// observers, so run() rejects a cache on observer plans. A computed
  /// cell's details carry every field but `latencies`, which its pool
  /// holds.
  CellResultStore* cache = nullptr;
};

/// Executes the plan, streaming each cell to every sink in grid order.
/// Sinks see begin(plan), then one emit per cell, then end() — end() is
/// only reached when every cell succeeded; an exception from a work item
/// or a sink propagates after the in-flight items drain.
void run(const ExperimentPlan& plan, const std::vector<ResultSink*>& sinks,
         const RunOptions& options = {});

/// Convenience: runs with a MemorySink plus the given extra sinks and
/// returns the aggregates in grid order.
std::vector<AggregateResult> run_collect(
    const ExperimentPlan& plan, const RunOptions& options = {},
    const std::vector<ResultSink*>& extra_sinks = {});

}  // namespace ucr::exp
