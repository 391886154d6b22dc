#include "core/exp_backon_backoff.hpp"

#include <cmath>

#include "common/check.hpp"
#include "protocols/window_node.hpp"

namespace ucr {

void ExpBackonParams::validate() const {
  UCR_REQUIRE(delta > 0.0 && delta < 1.0 / std::exp(1.0),
              "Exp Back-on/Back-off requires 0 < delta < 1/e");
}

ExpBackonBackoff::ExpBackonBackoff(const ExpBackonParams& params)
    : params_(params) {
  params_.validate();
}

std::uint64_t ExpBackonBackoff::next_window_slots() {
  const auto slots = static_cast<std::uint64_t>(std::ceil(w_));
  UCR_CHECK(slots >= 1, "sawtooth window must span at least one slot");
  // Inner loop: shrink; when w drops below 1, the outer loop doubles.
  w_ *= 1.0 - params_.delta;
  if (w_ < 1.0) {
    ++phase_;
    w_ = std::ldexp(1.0, static_cast<int>(phase_));  // 2^phase
  }
  return slots;
}

ProtocolFactory make_exp_backon_factory(const ExpBackonParams& params,
                                        std::string name) {
  params.validate();
  return window_protocol_factory(std::move(name), [params] {
    return std::make_unique<ExpBackonBackoff>(params);
  });
}

}  // namespace ucr
