#include "sim/sweep.hpp"

#include <atomic>
#include <future>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace ucr {

SweepPoint SweepPoint::fair(ProtocolFactory factory, std::uint64_t k,
                            std::uint64_t runs, std::uint64_t seed,
                            const EngineOptions& options) {
  SweepPoint point;
  point.factory = std::move(factory);
  point.k = k;
  point.runs = runs;
  point.seed = seed;
  point.options = options;
  return point;
}

SweepPoint SweepPoint::node(ProtocolFactory factory, ArrivalPattern arrivals,
                            std::uint64_t runs, std::uint64_t seed,
                            const EngineOptions& options) {
  SweepPoint point;
  point.factory = std::move(factory);
  point.arrivals = std::move(arrivals);
  point.k = point.arrivals.size();
  point.runs = runs;
  point.seed = seed;
  point.options = options;
  return point;
}

SweepPoint SweepPoint::node_per_run(
    ProtocolFactory factory, std::uint64_t k,
    std::function<ArrivalPattern(std::uint64_t run)> generator,
    std::uint64_t runs, std::uint64_t seed, const EngineOptions& options) {
  SweepPoint point;
  point.factory = std::move(factory);
  point.k = k;
  point.arrivals_per_run = std::move(generator);
  point.runs = runs;
  point.seed = seed;
  point.options = options;
  return point;
}

unsigned SweepRunner::threads() const {
  return ThreadPool::resolve_threads(options_.threads);
}

RunMetrics run_sweep_point_run(const SweepPoint& point, std::uint64_t run) {
  if (point.arrivals_per_run) {
    return run_single_node(point.factory, point.arrivals_per_run(run), run,
                           point.seed, point.options);
  }
  if (point.arrivals.empty()) {
    return run_single_fair(point.factory, point.k, run, point.seed,
                           point.options);
  }
  return run_single_node(point.factory, point.arrivals, run, point.seed,
                         point.options);
}

void SweepRunner::run_streaming(const std::vector<SweepPoint>& grid,
                                const CellCallback& emit) const {
  // Validate the whole grid up front so a malformed cell fails before any
  // work is scheduled, not halfway through a long sweep.
  for (const SweepPoint& point : grid) {
    UCR_REQUIRE(point.runs > 0, "at least one run required per sweep point");
    if (point.arrivals_per_run || !point.arrivals.empty()) {
      UCR_REQUIRE(static_cast<bool>(point.factory.node),
                  "protocol '" + point.factory.name +
                      "' has no per-node view");
    } else {
      UCR_REQUIRE(point.factory.has_fair(),
                  "protocol '" + point.factory.name +
                      "' has no fair-engine view");
    }
  }

  // Pre-assigned result slots: metrics[cell][run]. Each work item writes
  // only its own slot, so the only synchronization beyond the futures is
  // the emission bookkeeping below — and that is order-insensitive: the
  // last run of a cell folds the cell's aggregate, and the emit cursor
  // hands out exactly the completed prefix, whatever order cells finish.
  std::vector<std::vector<RunMetrics>> metrics(grid.size());
  std::vector<std::atomic<std::uint64_t>> remaining(grid.size());
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    metrics[cell].resize(grid[cell].runs);
    remaining[cell].store(grid[cell].runs, std::memory_order_relaxed);
  }
  std::vector<AggregateResult> ready(grid.size());
  std::vector<char> done(grid.size(), 0);
  std::size_t next_emit = 0;
  bool emit_failed = false;  // set once a sink throws; guarded by the mutex
  std::mutex emit_mutex;

  std::vector<std::future<void>> pending;
  {
    ThreadPool pool(options_.threads);
    // Grid-order dispatch: emission follows the completed grid prefix, so
    // any other order would buffer aggregates until the first cells end.
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
      const SweepPoint& point = grid[cell];
      for (std::uint64_t r = 0; r < point.runs; ++r) {
        pending.push_back(pool.submit([&, cell, r] {
          const SweepPoint& p = grid[cell];
          metrics[cell][r] = run_sweep_point_run(p, r);
          if (remaining[cell].fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return;
          }
          // Last run of this cell: fold the aggregate, then emit the
          // longest completed prefix. The cursor is advanced before the
          // callback runs so a throwing sink can never double-emit.
          std::lock_guard<std::mutex> lock(emit_mutex);
          ready[cell] = aggregate_runs(p.factory.name, p.cell_k(),
                                       std::move(metrics[cell]));
          done[cell] = 1;
          // Once any sink throws, the stream is dead: emitting later cells
          // would leave a gap in the middle of the output. Drop them and
          // let the parked exception propagate below.
          while (!emit_failed && next_emit < grid.size() &&
                 done[next_emit] != 0) {
            AggregateResult result = std::move(ready[next_emit]);
            const std::size_t index = next_emit++;
            try {
              emit(index, std::move(result));
            } catch (...) {
              emit_failed = true;
              throw;
            }
          }
        }));
      }
    }
    // ~ThreadPool drains the queue; futures below are then all ready.
  }

  // Surface the first work-item (or sink) exception in deterministic
  // submission order — again independent of scheduling.
  for (std::future<void>& f : pending) {
    f.get();
  }
}

std::vector<AggregateResult> SweepRunner::run(
    const std::vector<SweepPoint>& grid) const {
  std::vector<AggregateResult> results(grid.size());
  run_streaming(grid, [&results](std::size_t cell, AggregateResult&& result) {
    results[cell] = std::move(result);
  });
  return results;
}

}  // namespace ucr
