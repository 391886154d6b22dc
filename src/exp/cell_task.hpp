// Resumable per-cell task units — the middle of the exp pipeline.
//
//   ExperimentPlan --enumerate_cell_tasks()--> CellTask[] --execute()-->
//   CellResult --> ResultSink(s)
//
// A CellTask is one grid cell lifted out of the plan: the work
// (SweepPoint), the identity sinks need (CellInfo), and the provenance key
// (spec_hash, cell_index) that names the cell globally — the same pair on
// every shard, every thread count, and every machine compiling the same
// spec. Because run r of a cell is seeded stream(seed, r) and the arrival
// substreams are a pure function of the spec (exp/plan.cpp), a CellTask is
// independently executable: task.execute() on any box returns the exact
// AggregateResult the full sweep would have produced for that cell. That
// independence is what the provenance-keyed result cache
// (svc/result_cache.hpp), the sweep daemon (svc/service.hpp), and
// checkpoint/restart of week-long sweeps are built on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/plan.hpp"

namespace ucr::exp {

/// The outcome of one executed cell: identity plus aggregate, the unit a
/// ResultSink consumes and a result cache persists.
struct CellResult {
  CellInfo cell;
  AggregateResult aggregate;
};

/// One independently executable cell of a compiled plan.
struct CellTask {
  /// Provenance: the plan's shard-invariant spec content hash.
  std::string spec_hash;
  /// Cell identity; `cell.index` is the position in the *full* flattened
  /// grid, so shards of one sweep never collide on a key.
  CellInfo cell;
  /// The work: protocol factory, workload, runs, seed, engine options.
  SweepPoint point;

  /// Globally unique cache/debug key: "<spec_hash>/cell-<index>".
  std::string key() const;

  /// Executes every run of this cell serially and folds the aggregate.
  /// Its row is bit-identical to the one run() produces for the same cell
  /// (runs are seeded stream(seed, r) either way; pinned by
  /// tests/exp/cell_task_test.cpp). Its details keep every run's
  /// latencies; run()'s leave them to the aggregate's latency pool.
  CellResult execute() const;
};

/// Lifts a compiled plan into its task list, in grid order: tasks[i] is
/// the work of plan.cells[i] stamped with plan.spec_hash.
std::vector<CellTask> enumerate_cell_tasks(const ExperimentPlan& plan);

}  // namespace ucr::exp
