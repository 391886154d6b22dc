// ucr_coordctl — thin client for the coordinator's control socket
// (coord::control_verbs). The coordinator serves it through the sweep
// daemon's own socket server (svc/server.hpp), so this reuses the svc
// client helpers verbatim; --json prints the coordinator's response
// byte-for-byte for scripts (the field names are pinned by tests and
// docs/SERVICE.md).
//
// Examples:
//   ucr_coordctl --socket=/tmp/coord.sock --ping
//   ucr_coordctl --socket=/tmp/coord.sock --status
//   ucr_coordctl --socket=/tmp/coord.sock --status --json
#include <iostream>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "svc/client.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: ucr_coordctl --socket=PATH (--ping | --status) [--json]\n\n"
         "  --socket=PATH  a running ucr_coordd's control socket\n"
         "  --ping         check the coordinator is alive\n"
         "  --status       print run progress (shards done/running/\n"
         "                 pending, attempts, per-worker load)\n"
         "  --json         print the coordinator's JSON response\n"
         "                 verbatim instead of the human summary\n";
  return 2;
}

void print_status(const ucr::json::Value& status) {
  std::cout << "coordinator " << status.at("state").as_string() << ": "
            << status.at("completed").number_token() << "/"
            << status.at("shards").number_token() << " shards done, "
            << status.at("running").number_token() << " running, "
            << status.at("pending").number_token() << " pending, "
            << status.at("attempts").number_token() << " attempts, "
            << "spec_hash " << status.at("spec_hash").as_string() << "\n";
  for (const ucr::json::Value& worker : status.at("workers").items()) {
    std::cout << "  worker " << worker.at("name").as_string() << ": "
              << worker.at("busy").number_token() << "/"
              << worker.at("capacity").number_token() << " busy, "
              << worker.at("failures").number_token() << " failures\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ucr::CliArgs args(argc, argv,
                            {"socket", "ping", "status", "json"});
    const auto socket_path = args.get("socket");
    if (!socket_path.has_value()) return usage("--socket=PATH is required");

    if (args.get_bool("ping", false)) {
      ucr::svc::request(*socket_path, ucr::svc::simple_request("ping"));
      std::cout << "coordinator at " << *socket_path << " is alive\n";
      return 0;
    }
    if (args.get_bool("status", false)) {
      const std::string raw = ucr::svc::request_raw(
          *socket_path, ucr::svc::simple_request("status"));
      if (args.get_bool("json", false)) {
        std::cout << raw << "\n";
      } else {
        print_status(ucr::json::parse(raw));
      }
      return 0;
    }
    return usage("one of --ping or --status is required");
  } catch (const ucr::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
