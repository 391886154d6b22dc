// Per-node simulation engine: every station is simulated individually.
//
// Exact mode is the ground-truth engine — it makes no fairness
// assumption, so it supports dynamic arrivals (stations in genuinely
// different states), every channel model and per-slot observers, and is
// used by the test suite to validate the aggregate engine statistically.
// Cost is O(active stations) per slot; use FairEngine for batched arrivals
// at k >> 10^4.
//
// Batched mode (EngineOptions::batched) is its fast path for the silent
// stretches dynamic workloads are made of: whenever the active-station set
// is stationary — empty until the next arrival, or every station
// advertising a constant transmission probability through
// NodeProtocol::stationary_slots() — the slots are i.i.d. categorical, so
// the engine samples the geometric length of the non-success run plus one
// binomial silence/collision split in bulk and materializes only the
// state-changing (success) slot. Arrivals truncate every stretch, so
// Poisson/burst workloads stay exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

#include "sim/arrival.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"

namespace ucr {

/// Creates one station's element of the engine's station table, the moment
/// the station is activated. `rng` is the engine stream; stateful
/// protocols that pre-draw randomness may use it (it outlives the station).
///
/// Station is the element type of the table. A catalogue protocol's
/// stations are held by value as their concrete final NodeProtocol class,
/// so every per-station call is direct and inlinable; BoxedStation holds
/// any NodeProtocol behind a pointer, with virtual calls.
template <class Station>
using StationFactory = std::function<Station(Xoshiro256& rng)>;
using BoxedStation = std::unique_ptr<NodeProtocol>;
using NodeFactory = StationFactory<BoxedStation>;

/// Runs the per-node engine on an arbitrary arrival pattern.
///
/// `arrivals` must be sorted non-decreasing. Every station gets its element
/// from `factory` the moment it is activated, in arrival order. Returns
/// metrics with `k = arrivals.size()`. An EngineOptions::observer (exact
/// mode only) is invoked once per resolved slot; SlotView::probability
/// reports the mean per-station transmission probability of the slot (0
/// when no station is active), the per-node generalization of the fair
/// engines' common probability.
///
/// Batched mode (see the file comment) has the same law of outcomes — no
/// approximation: within a stationary stretch the slots are i.i.d.
/// categorical over {silence, success-by-station-i, collision}, so drawing
/// the truncated geometric non-success run length, one binomial
/// silence/collision split, and the delivering station from its
/// conditional distribution reproduces the exact joint law. Stretches
/// where any active station declines to certify stationarity
/// (NodeProtocol::stationary_slots() == 1) take exact mode's one-slot step
/// with the same per-station draws in the same order, and skipping an
/// empty-channel stretch consumes no randomness at all — so a workload
/// whose stations all keep the default hint of 1 is bit-identical across
/// the two modes from the same seed. Stretches certified by hints > 1
/// generally consume randomness differently and are pinned statistically
/// (tests/integration/node_batched_test.cpp) — except when every
/// probability in the stretch is an exact 0 or 1, as with the pre-drawn
/// window adapter (protocols/window_node.hpp): Bernoulli, geometric and
/// binomial draws are all draw-free at degenerate p, so window-protocol
/// cells are bit-identical between the two modes even while skipping
/// (pinned byte-for-byte by the dynamic-arrivals golden test). Batched
/// mode requires the clean channel and no observer, and throws
/// ContractViolation otherwise.
///
/// Accounting: RunMetrics::transmissions counts materialized slots only
/// (every slot in exact mode); expected_transmissions carries realized
/// counts for materialized slots plus the unconditional expectation
/// sum_i p_i per slot of every bulk stretch, its success slot included —
/// unbiased by Wald's identity, so its mean matches exact mode's realized
/// mean, and for a run with no skipped stretches the two are equal.
///
/// One loop serves every element type: its body is a function template
/// (sim/node_engine_loop.hpp), instantiated once per element type — see
/// that header for where. The element type changes no output byte.
template <class Station>
RunMetrics run_node_engine(const StationFactory<Station>& factory,
                           const ArrivalPattern& arrivals, Xoshiro256& rng,
                           const EngineOptions& options);

/// The per-node view of one protocol configuration (ProtocolFactory::node).
/// node_view() builds it from one station constructor, so its two entry
/// points run the same stations:
///  * operator()(k, rng) returns one boxed station — the reference path of
///    run_node_engine(const NodeFactory&, ...), and how tests inspect
///    single stations;
///  * run(arrivals, rng, options) runs the per-node engine over a station
///    table of the view's element type — what run_single_node calls.
class NodeView {
 public:
  NodeView() = default;
  NodeView(std::nullptr_t) {}  // `factory.node = nullptr` clears the view

  explicit operator bool() const { return static_cast<bool>(boxed_); }

  BoxedStation operator()(std::uint64_t k, Xoshiro256& rng) const {
    return boxed_(k, rng);
  }

  RunMetrics run(const ArrivalPattern& arrivals, Xoshiro256& rng,
                 const EngineOptions& options) const {
    return run_(arrivals, rng, options);
  }

 private:
  template <class Station, class Make>
  friend NodeView node_view(Make make);

  std::function<BoxedStation(std::uint64_t k, Xoshiro256& rng)> boxed_;
  std::function<RunMetrics(const ArrivalPattern& arrivals, Xoshiro256& rng,
                           const EngineOptions& options)>
      run_;
};

/// Builds a per-node view from `make(k, rng)`, which returns one Station by
/// value (`k` is the run's message count, `rng` as in StationFactory).
/// run_node_engine<Station> must be instantiated in some translation unit
/// (sim/node_engine_loop.hpp lists where).
template <class Station, class Make>
NodeView node_view(Make make) {
  NodeView view;
  view.boxed_ = [make](std::uint64_t k, Xoshiro256& rng) -> BoxedStation {
    if constexpr (std::is_same_v<Station, BoxedStation>) {
      return make(k, rng);
    } else {
      return std::make_unique<Station>(make(k, rng));
    }
  };
  view.run_ = [make](const ArrivalPattern& arrivals, Xoshiro256& rng,
                     const EngineOptions& options) {
    const std::uint64_t k = arrivals.size();
    const StationFactory<Station> factory =
        [&make, k](Xoshiro256& station_rng) -> Station {
      return make(k, station_rng);
    };
    return run_node_engine<Station>(factory, arrivals, rng, options);
  };
  return view;
}

}  // namespace ucr
