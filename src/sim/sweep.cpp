#include "sim/sweep.hpp"

#include <utility>

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

}  // namespace ucr
