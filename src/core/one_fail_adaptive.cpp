#include "core/one_fail_adaptive.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "sim/node_engine_loop.hpp"

namespace ucr {

double OneFailParams::delta_upper_bound() {
  double sum = 0.0;
  double term = 1.0;
  for (int j = 1; j <= 5; ++j) {
    term *= 5.0 / 6.0;
    sum += term;
  }
  return sum;  // = 2.990561...
}

void OneFailParams::validate() const {
  UCR_REQUIRE(delta > std::exp(1.0),
              "One-Fail Adaptive requires delta > e");
  UCR_REQUIRE(delta <= delta_upper_bound(),
              "One-Fail Adaptive requires delta <= sum_{j=1..5}(5/6)^j");
}

OneFailAdaptive::OneFailAdaptive(const OneFailParams& params)
    : params_(params), kappa_(params.delta + 1.0) {
  params_.validate();
}

void OneFailAdaptive::hear_delivery() {
  const double floor = params_.delta + 1.0;
  if (is_bt_step()) {
    kappa_ = std::max(kappa_ - params_.delta, floor);  // Task 2, BT branch
  } else {
    kappa_ += 1.0;  // Task 1 line 11 (every AT step)
    kappa_ = std::max(kappa_ - params_.delta - 1.0, floor);  // Task 2, AT
  }
  ++sigma_;
  // Line 8's probability moves only with sigma: compute it here, once per
  // heard delivery, instead of on every BT step.
  bt_probability_ = 1.0 / (1.0 + log2x(static_cast<double>(sigma_) + 1.0));
}

ProtocolFactory make_one_fail_factory(const OneFailParams& params,
                                      std::string name) {
  params.validate();
  return slot_protocol_factory<OneFailAdaptive>(
      std::move(name),
      [params](std::uint64_t) { return OneFailAdaptive(params); });
}

}  // namespace ucr
