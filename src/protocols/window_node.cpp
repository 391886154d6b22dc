#include "protocols/window_node.hpp"

#include "common/check.hpp"
#include "sim/node_engine_loop.hpp"

namespace ucr {

WindowNodeProtocol::WindowNodeProtocol(std::unique_ptr<WindowSchedule> schedule,
                                       Xoshiro256& engine_rng)
    : schedule_(std::move(schedule)),
      draws_(derive_window_offset_stream(engine_rng)) {
  UCR_REQUIRE(schedule_ != nullptr, "window adapter needs a schedule");
}

void WindowNodeProtocol::fetch_window() {
  window_ = schedule_->next_window_slots();
  UCR_CHECK(window_ >= 1, "window schedule produced an empty window");
  offset_ = 0;
  tx_offset_ = draws_.next_below(window_);
}

// The per-node engine over window stations held by value (node_view), one
// instantiation for every window protocol.
template RunMetrics run_node_engine<WindowNodeProtocol>(
    const StationFactory<WindowNodeProtocol>&, const ArrivalPattern&,
    Xoshiro256&, const EngineOptions&);

}  // namespace ucr
