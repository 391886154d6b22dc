#include "core/dynamic_one_fail.hpp"

#include "sim/node_engine_loop.hpp"

namespace ucr {

DynamicOneFailState::DynamicOneFailState(const OneFailParams& params)
    : params_(params),
      kappa_(params.delta + 1.0),
      ceiling_(2.0 * (params.delta + 1.0)) {
  params_.validate();
}

DynamicOneFail::DynamicOneFail(const OneFailParams& params)
    : state_(params) {}

double DynamicOneFail::transmit_probability() const {
  return state_.transmit_probability();
}

void DynamicOneFail::on_slot_end(bool delivery) { state_.advance(delivery); }

DynamicOneFailNode::DynamicOneFailNode(const OneFailParams& params)
    : state_(params) {}

// The per-node engine over Dynamic One-Fail stations held by value
// (node_view).
template RunMetrics run_node_engine<DynamicOneFailNode>(
    const StationFactory<DynamicOneFailNode>&, const ArrivalPattern&,
    Xoshiro256&, const EngineOptions&, LatencyMetrics*);

ProtocolFactory make_dynamic_one_fail_factory(const OneFailParams& params,
                                              std::string name) {
  params.validate();
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [params](std::uint64_t) {
    return std::make_unique<DynamicOneFail>(params);
  };
  f.node = node_view<DynamicOneFailNode>([params](std::uint64_t, Xoshiro256&) {
    return DynamicOneFailNode(params);
  });
  return f;
}

}  // namespace ucr
