#include "protocols/known_k.hpp"

#include "common/check.hpp"
#include "sim/node_engine_loop.hpp"

namespace ucr {

KnownKGenie::KnownKGenie(std::uint64_t k) : remaining_(k) {
  UCR_REQUIRE(k > 0, "genie needs a positive k");
}

ProtocolFactory make_known_k_factory(std::string name) {
  return slot_protocol_factory<KnownKGenie>(
      std::move(name), [](std::uint64_t k) { return KnownKGenie(k); });
}

}  // namespace ucr
