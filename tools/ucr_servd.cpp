// ucr_servd — the sweep daemon: accepts textual specs over a local
// socket, executes them FIFO on the worker pool, and streams JSONL result
// rows back in grid order. With --cache, completed cells are banked in
// the provenance-keyed result cache, so resubmitting a spec (or resuming
// a killed one) replays banked cells instead of recomputing them.
// Protocol and cache layout: docs/SERVICE.md.
//
// Examples:
//   ucr_servd --socket=/tmp/ucr.sock --cache=/tmp/ucr-cache
//   ucr_cli --submit=specs/fig1.spec --socket=/tmp/ucr.sock --wait
//   ucr_cli --shutdown --socket=/tmp/ucr.sock
#include <iostream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/socket.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: ucr_servd --socket=PATH [--cache=DIR] [--threads=N]\n\n"
         "  --socket=PATH   AF_UNIX socket to listen on (required; any\n"
         "                  stale socket file is replaced)\n"
         "  --cache=DIR     result cache root — completed cells persist\n"
         "                  across jobs and daemon restarts (default:\n"
         "                  no cache, every job computes every cell)\n"
         "  --threads=N     sweep worker threads per job (default: each\n"
         "                  spec's own threads value; 0 there means all\n"
         "                  hardware threads)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ucr::CliArgs args(argc, argv, {"socket", "cache", "threads"});
    const auto socket_path = args.get("socket");
    if (!socket_path.has_value()) return usage("--socket=PATH is required");

    ucr::svc::SweepService::Options options;
    if (const auto cache = args.get("cache")) options.cache_dir = *cache;
    options.threads = ucr::thread_count_option(args, "UCR_THREADS");

    ucr::svc::SweepService service(options);
    const int listen_fd = ucr::svc::listen_unix(*socket_path);
    // The ready line is the startup handshake scripts wait for — it is
    // printed only after the socket accepts connections.
    std::cerr << "ucr_servd: listening on " << *socket_path
              << (options.cache_dir.empty()
                      ? std::string(" (no cache)")
                      : ", cache " + options.cache_dir)
              << "\n";
    ucr::svc::run_server(listen_fd, *socket_path,
                         ucr::svc::sweep_verbs(service, listen_fd));
    // Drain: jobs still queued at shutdown finish into the cache.
    service.stop();
    std::cerr << "ucr_servd: shut down\n";
    return 0;
  } catch (const ucr::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
