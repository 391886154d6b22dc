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

double LogFailsAdaptive::track_decrease() { return std::exp(1.0); }

LogFailsAdaptive::LogFailsAdaptive(const LogFailsParams& params,
                                   std::uint64_t k)
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

void LogFailsAdaptive::hear_delivery() {
  searching_ = false;  // the channel is live: switch to tracking
  set_kappa(std::max(kappa_ - track_decrease(), kKappaFloor));
}

void LogFailsAdaptive::cross_fail_threshold() {
  if (searching_) {
    set_kappa(kappa_ * (1.0 + params_.xi_delta));
  } else {
    set_kappa(kappa_ + static_cast<double>(fails_));
  }
  fails_ = 0;
}

ProtocolFactory make_log_fails_factory(const LogFailsParams& params,
                                       std::string name) {
  params.validate();
  if (name.empty()) {
    name = "Log-Fails Adaptive (" +
           std::to_string(static_cast<int>(std::llround(1.0 / params.xi_t))) +
           ")";
  }
  return slot_protocol_factory<LogFailsAdaptive>(
      std::move(name),
      [params](std::uint64_t k) { return LogFailsAdaptive(params, k); });
}

}  // namespace ucr
