#include "core/registry.hpp"

#include "common/check.hpp"
#include "common/strings.hpp"
#include "core/dynamic_one_fail.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/exp_backoff.hpp"
#include "protocols/known_k.hpp"
#include "protocols/log_fails_adaptive.hpp"
#include "protocols/loglog_backoff.hpp"

namespace ucr {

std::vector<ProtocolFactory> paper_protocols() {
  std::vector<ProtocolFactory> protocols;

  LogFailsParams lfa2;
  lfa2.xi_t = 0.5;
  protocols.push_back(make_log_fails_factory(lfa2, "Log-Fails Adaptive (2)"));

  LogFailsParams lfa10;
  lfa10.xi_t = 0.1;
  protocols.push_back(make_log_fails_factory(lfa10, "Log-Fails Adaptive (10)"));

  protocols.push_back(make_one_fail_factory(OneFailParams{2.72}));
  protocols.push_back(make_exp_backon_factory(ExpBackonParams{0.366}));
  protocols.push_back(make_loglog_factory(LogLogParams{2.0}));
  return protocols;
}

std::vector<ProtocolFactory> extra_protocols() {
  std::vector<ProtocolFactory> protocols;
  protocols.push_back(
      make_exp_backoff_factory(ExpBackoffParams{2.0},
                               "Exponential Back-off (r=2)"));
  protocols.push_back(make_known_k_factory());
  return protocols;
}

std::vector<ProtocolFactory> all_protocols() {
  std::vector<ProtocolFactory> protocols = paper_protocols();
  for (auto& p : extra_protocols()) {
    protocols.push_back(std::move(p));
  }
  return protocols;
}

std::vector<ProtocolFactory> default_catalogue() {
  std::vector<ProtocolFactory> protocols = all_protocols();
  protocols.push_back(make_dynamic_one_fail_factory());
  return protocols;
}

const ProtocolFactory* try_find_protocol(
    const std::vector<ProtocolFactory>& catalogue, const std::string& name) {
  for (const ProtocolFactory& p : catalogue) {
    if (p.name == name) return &p;
  }
  const std::string folded = lowercase(name);
  const ProtocolFactory* loose = nullptr;
  for (const ProtocolFactory& p : catalogue) {
    if (lowercase(p.name) != folded) continue;
    if (loose != nullptr) return nullptr;  // ambiguous: refuse to guess
    loose = &p;
  }
  return loose;
}

const ProtocolFactory& find_protocol(
    const std::vector<ProtocolFactory>& catalogue, const std::string& name) {
  const ProtocolFactory* found = try_find_protocol(catalogue, name);
  if (found != nullptr) return *found;
  UCR_REQUIRE(!catalogue.empty(),
              "unknown protocol '" + name + "' (the catalogue is empty)");
  std::vector<std::string> names;
  names.reserve(catalogue.size());
  for (const ProtocolFactory& p : catalogue) names.push_back(p.name);
  throw ContractViolation("unknown protocol '" + name + "' — did you mean '" +
                          closest_name(names, name) + "'?");
}

}  // namespace ucr
