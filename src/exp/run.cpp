#include "exp/run.hpp"

#include <atomic>
#include <future>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace ucr::exp {

void run(const ExperimentPlan& plan, const std::vector<ResultSink*>& sinks,
         const RunOptions& options) {
  for (ResultSink* sink : sinks) {
    UCR_REQUIRE(sink != nullptr, "null ResultSink attached to run()");
  }
  const std::vector<CellTask> tasks = enumerate_cell_tasks(plan);
  const std::size_t cells = tasks.size();

  // Probe the store up front: cached cells replay, the rest execute. A
  // replayed cell never runs, so an observer would silently miss its
  // slots — reject the combination loudly (observer plans are single-cell
  // single-run anyway; they have nothing to gain from a cache). `cached`
  // is fixed here, before the first emission moves any replayed result
  // out of `ready`.
  std::vector<std::optional<AggregateResult>> ready(cells);
  std::vector<char> cached(cells, 0);
  // Pre-assigned result slots, metrics[cell][run] and latencies[cell][run]:
  // each work item writes only its own slots, pooling its run's latencies
  // and freeing them, so latency vectors live only while their run is in
  // flight. The run that takes remaining[cell] to zero folds the cell.
  std::vector<std::vector<RunMetrics>> metrics(cells);
  std::vector<std::vector<LatencyPool>> latencies(cells);
  std::vector<std::atomic<std::uint64_t>> remaining(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const SweepPoint& point = tasks[i].point;
    UCR_REQUIRE(point.runs > 0, "at least one run required per cell");
    if (options.cache != nullptr) {
      UCR_REQUIRE(point.options.observer == nullptr,
                  "a result cache cannot be attached to an observer plan "
                  "(cached replay never materializes slots)");
      ready[i] = options.cache->load(plan.spec_hash, tasks[i].cell.index);
      cached[i] = ready[i].has_value();
    }
    if (!cached[i]) {
      metrics[i].resize(point.runs);
      latencies[i].resize(point.runs);
      remaining[i].store(point.runs, std::memory_order_relaxed);
    }
  }

  for (ResultSink* sink : sinks) {
    sink->begin(plan);
  }

  // Grid-order emission cursor, shared by cached replays and fresh
  // completions: a cell is handed to the sinks as soon as every cell
  // before it is ready. A fresh cell is stored just before it is emitted,
  // so a run killed mid-stream has banked every cell it already wrote.
  // Once a store or sink throws, the stream is dead: emitting later cells
  // would leave a gap in the middle of the output, so nothing more is
  // stored or emitted and the exception propagates below. The mutex
  // serializes every store and sink call.
  std::mutex mutex;
  std::size_t cursor = 0;
  bool failed = false;
  const auto emit_ready = [&] {
    try {
      while (!failed && cursor < cells && ready[cursor].has_value()) {
        AggregateResult result = std::move(*ready[cursor]);
        ready[cursor].reset();
        const std::size_t index = cursor++;
        if (options.cache != nullptr && !cached[index]) {
          options.cache->store(tasks[index], result);
        }
        for (ResultSink* sink : sinks) {
          sink->emit(tasks[index].cell, result);
        }
      }
    } catch (...) {
      failed = true;
      throw;
    }
  };

  // A leading cached prefix streams before any work is scheduled; a fully
  // cached plan starts no worker thread.
  emit_ready();

  std::vector<std::future<void>> pending;
  if (cursor < cells) {
    ThreadPool pool(options.threads);
    // Grid-order dispatch: emission follows the completed grid prefix, so
    // any other order would buffer aggregates until the first cells end.
    for (std::size_t cell = cursor; cell < cells; ++cell) {
      if (cached[cell]) continue;
      for (std::uint64_t r = 0; r < tasks[cell].point.runs; ++r) {
        pending.push_back(pool.submit([&, cell, r] {
          const SweepPoint& point = tasks[cell].point;
          RunMetrics run = run_sweep_point_run(point, r);
          latencies[cell][r].add(run.latencies);
          run.latencies = std::vector<std::uint64_t>();  // frees them
          metrics[cell][r] = std::move(run);
          if (remaining[cell].fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return;
          }
          // Last run of this cell: this thread now owns its slots.
          LatencyPool pool;
          for (const LatencyPool& run_pool : latencies[cell]) {
            pool.merge(run_pool);
          }
          latencies[cell] = std::vector<LatencyPool>();
          AggregateResult result =
              aggregate_runs(point.factory.name, point.cell_k(),
                             std::move(metrics[cell]), std::move(pool));
          std::lock_guard<std::mutex> lock(mutex);
          ready[cell] = std::move(result);
          emit_ready();
        }));
      }
    }
    // ~ThreadPool drains the queue; the futures below are then all ready.
  }

  // Surface the first work-item (or sink) exception in submission order,
  // independent of scheduling.
  for (std::future<void>& f : pending) {
    f.get();
  }
  UCR_CHECK(cursor == cells, "run() emitted fewer cells than planned");
  for (ResultSink* sink : sinks) {
    sink->end();
  }
}

std::vector<AggregateResult> run_collect(
    const ExperimentPlan& plan, const RunOptions& options,
    const std::vector<ResultSink*>& extra_sinks) {
  MemorySink memory;
  std::vector<ResultSink*> sinks{&memory};
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
  run(plan, sinks, options);
  return memory.take_results();
}

}  // namespace ucr::exp
