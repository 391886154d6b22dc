#include "core/dynamic_one_fail.hpp"

#include "sim/node_engine_loop.hpp"

namespace ucr {

DynamicOneFail::DynamicOneFail(const OneFailParams& params)
    : params_(params),
      kappa_(params.delta + 1.0),
      ceiling_(2.0 * (params.delta + 1.0)) {
  params_.validate();
}

ProtocolFactory make_dynamic_one_fail_factory(const OneFailParams& params,
                                              std::string name) {
  params.validate();
  return slot_protocol_factory<DynamicOneFail>(
      std::move(name),
      [params](std::uint64_t) { return DynamicOneFail(params); });
}

}  // namespace ucr
