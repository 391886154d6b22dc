#include "protocols/log_fails_adaptive.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "sim/node_engine_loop.hpp"

namespace ucr {

void LogFailsParams::validate() const {
  UCR_REQUIRE(xi_t > 0.0 && xi_t <= 0.5,
              "xi_t must be in (0, 1/2] (at most every other slot is BT)");
  UCR_REQUIRE(xi_delta > 0.0 && xi_delta < 1.0, "xi_delta must be in (0, 1)");
  UCR_REQUIRE(xi_beta > 0.0 && xi_beta <= 1.0, "xi_beta must be in (0, 1]");
  UCR_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
              "epsilon must be a small error probability (or 0 = derive)");
}

double LogFailsState::track_decrease() { return std::exp(1.0); }

LogFailsState::LogFailsState(const LogFailsParams& params, std::uint64_t k)
    : params_(params) {
  params_.validate();
  if (params_.epsilon == 0.0) {
    UCR_REQUIRE(k > 0, "cannot derive epsilon without the workload size");
    params_.epsilon = 1.0 / (static_cast<double>(k) + 1.0);
  }
  bt_period_ = static_cast<std::uint64_t>(std::llround(1.0 / params_.xi_t));
  UCR_CHECK(bt_period_ >= 2, "BT period must be at least 2");
  const double log_inv_eps = lnx(1.0 / params_.epsilon);
  search_threshold_ = static_cast<std::uint64_t>(
      std::ceil(log_inv_eps * log_inv_eps / params_.xi_beta));
  track_threshold_ = static_cast<std::uint64_t>(
      std::ceil(log_inv_eps / params_.xi_beta));
  UCR_CHECK(track_threshold_ >= 1, "fail threshold must be positive");
  bt_prob_ = 1.0 / (1.0 + log2x(1.0 / params_.epsilon));
}

void LogFailsState::hear_delivery() {
  searching_ = false;  // the channel is live: switch to tracking
  set_kappa(std::max(kappa_ - track_decrease(), kKappaFloor));
}

void LogFailsState::cross_fail_threshold() {
  if (searching_) {
    set_kappa(kappa_ * (1.0 + params_.xi_delta));
  } else {
    set_kappa(kappa_ + static_cast<double>(fails_));
  }
  fails_ = 0;
}

LogFailsAdaptive::LogFailsAdaptive(const LogFailsParams& params,
                                   std::uint64_t k)
    : state_(params, k) {}

double LogFailsAdaptive::transmit_probability() const {
  return state_.transmit_probability();
}

void LogFailsAdaptive::on_slot_end(bool delivery) { state_.advance(delivery); }

std::uint64_t LogFailsAdaptive::constant_probability_slots() const {
  return state_.constant_probability_slots();
}

void LogFailsAdaptive::on_non_delivery_slots(std::uint64_t count) {
  state_.advance_non_delivery(count);
}

LogFailsAdaptiveNode::LogFailsAdaptiveNode(const LogFailsParams& params,
                                           std::uint64_t k)
    : state_(params, k) {}

// The per-node engine over Log-Fails stations held by value (node_view).
template RunMetrics run_node_engine<LogFailsAdaptiveNode>(
    const StationFactory<LogFailsAdaptiveNode>&, const ArrivalPattern&,
    Xoshiro256&, const EngineOptions&, LatencyMetrics*);

ProtocolFactory make_log_fails_factory(const LogFailsParams& params,
                                       std::string name) {
  params.validate();
  if (name.empty()) {
    name = "Log-Fails Adaptive (" +
           std::to_string(static_cast<int>(std::llround(1.0 / params.xi_t))) +
           ")";
  }
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [params](std::uint64_t k) {
    return std::make_unique<LogFailsAdaptive>(params, k);
  };
  f.node = node_view<LogFailsAdaptiveNode>(
      [params](std::uint64_t k, Xoshiro256&) {
        return LogFailsAdaptiveNode(params, k);
      });
  return f;
}

}  // namespace ucr
