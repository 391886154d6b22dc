// ucr_coordd — the distributed sweep coordinator (docs/SERVICE.md).
// Takes one spec file, partitions it into --shard=i/N work units, fans
// them out over a worker fleet (a workers file of `local` / `exec:`
// lines), health-checks workers by output progress, retries failed or
// timed-out shards on other workers, and writes the concatenated —
// validated, byte-identical-to-unsharded — archive to stdout or --output.
// With --socket, a control socket answers ping/status while the run is
// in flight (ucr_coordctl is the client). SIGTERM and SIGINT stop the run:
// every in-flight worker is killed, the socket is removed, and the exit
// status is 2.
//
// Examples:
//   ucr_coordd --spec=specs/fig1.spec --local=4 --format=jsonl
//              --work-dir=/tmp/coord > fig1.jsonl
//   ucr_coordd --spec=specs/fig1.spec --workers=fleet.workers
//              --cli=./build/tools/ucr_cli --work-dir=/tmp/coord
//              --socket=/tmp/coord.sock --output=fig1.jsonl
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "coord/coordinator.hpp"
#include "coord/workers.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace {

// The coordinator a SIGTERM or SIGINT stops; null outside its run.
std::atomic<ucr::coord::Coordinator*> stoppable{nullptr};

extern "C" void stop_on_signal(int signal) {
  if (ucr::coord::Coordinator* coordinator = stoppable.load()) {
    coordinator->stop(signal);
  }
}

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: ucr_coordd --spec=FILE (--workers=FILE | --local=N)\n"
         "                  --work-dir=DIR [options]\n\n"
         "  --spec=FILE      base spec to sweep (must be unsharded; the\n"
         "                   coordinator owns the shard axis)\n"
         "  --workers=FILE   worker fleet, one worker per line:\n"
         "                     local [capacity=N] [name=STR]\n"
         "                     exec [capacity=N] [name=STR]: argv prefix\n"
         "                   ('exec: ssh node7 wrapper.sh' prepends its\n"
         "                   argv to the ucr_cli invocation)\n"
         "  --local=N        shortcut: a fleet of N local workers\n"
         "  --work-dir=DIR   scratch root for shard work units, per-attempt\n"
         "                   outputs, worker logs and caches (created;\n"
         "                   never deleted)\n"
         "  --shards=N       work units (default: fleet capacity, clamped\n"
         "                   to the grid size)\n"
         "  --cli=PATH       ucr_cli binary workers run (default:\n"
         "                   'ucr_cli' through PATH)\n"
         "  --output=FILE    assembled archive destination (default:\n"
         "                   stdout)\n"
         "  --format=csv|jsonl  output format override (required when\n"
         "                   the spec says table)\n"
         "  --threads=N      worker threads per shard invocation\n"
         "  --max-attempts=N attempts per shard before the run fails\n"
         "                   loudly (default 3)\n"
         "  --heartbeat=SEC  kill + retry a worker whose output has not\n"
         "                   grown for SEC seconds (default 60)\n"
         "  --socket=PATH    serve the ping/status control protocol on\n"
         "                   this AF_UNIX socket while running\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ucr::CliArgs args(
        argc, argv,
        {"spec", "workers", "local", "work-dir", "shards", "cli", "output",
         "format", "threads", "max-attempts", "heartbeat", "socket"});

    ucr::coord::CoordinatorOptions options;
    const auto spec = args.get("spec");
    if (!spec.has_value()) return usage("--spec=FILE is required");
    options.spec_path = *spec;

    const auto workers_file = args.get("workers");
    const auto local = args.get("local");
    if (workers_file.has_value() == local.has_value()) {
      return usage("exactly one of --workers=FILE or --local=N selects "
                   "the fleet");
    }
    if (workers_file.has_value()) {
      options.workers = ucr::coord::load_workers_file(*workers_file);
    } else {
      const std::uint64_t count =
          ucr::parse_u64_strict(*local, "--local");
      UCR_REQUIRE(count >= 1, "--local needs at least one worker");
      std::string text;
      for (std::uint64_t i = 0; i < count; ++i) text += "local\n";
      options.workers = ucr::coord::parse_workers(text);
    }

    const auto work_dir = args.get("work-dir");
    if (!work_dir.has_value()) return usage("--work-dir=DIR is required");
    options.work_dir = *work_dir;

    options.shards = args.get_u64("shards", 0);
    if (const auto cli = args.get("cli")) options.cli = *cli;
    options.max_attempts = static_cast<unsigned>(
        args.get_u64("max-attempts", options.max_attempts));
    options.heartbeat_seconds =
        args.get_double("heartbeat", options.heartbeat_seconds);
    // `table` parses here and is refused by the Coordinator constructor.
    if (const auto format = args.get("format")) {
      options.format = ucr::exp::parse_output_format(*format, "--format");
    }
    options.worker_threads = ucr::thread_count_option(args, "UCR_THREADS");

    ucr::coord::Coordinator coordinator(std::move(options));
    std::cerr << "ucr_coordd: " << coordinator.shards() << " shards, "
              << "spec_hash " << coordinator.spec_hash() << "\n";

    // A stop signal fails run() through its own path, which kills every
    // in-flight worker; unwinding then removes the control socket.
    struct Unhook {
      ~Unhook() { stoppable.store(nullptr); }
    } unhook;
    stoppable.store(&coordinator);
    struct sigaction action {};
    action.sa_handler = stop_on_signal;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    // The control socket is served on its own thread while run() works
    // on this one. Leaving this scope stops it — after a successful run
    // and while a failed one unwinds — so the socket file never outlives
    // the run and the thread is always joined.
    struct ControlThread {
      int fd = -1;
      std::thread thread;
      ~ControlThread() {
        if (!thread.joinable()) return;
        ucr::svc::stop_server(fd);
        thread.join();
      }
    } control;
    if (const auto socket = args.get("socket")) {
      control.fd = ucr::svc::listen_unix(*socket);
      control.thread = std::thread(ucr::svc::run_server, control.fd, *socket,
                                   ucr::coord::control_verbs(coordinator));
      std::cerr << "ucr_coordd: control socket on " << *socket << "\n";
    }

    std::ofstream file_out;
    std::ostream* out = &std::cout;
    if (const auto output = args.get("output")) {
      file_out.open(*output);
      UCR_REQUIRE(file_out.is_open(),
                  "cannot open output file '" + *output + "'");
      out = &file_out;
    }

    const ucr::coord::CoordReport report = coordinator.run(*out);
    std::cerr << "ucr_coordd: done: " << report.shards << " shards, "
              << report.attempts << " attempts (" << report.retries
              << " retried), " << report.rows << " rows, spec_hash "
              << report.spec_hash << "\n";
    // Mirror ucr_cli: exit 1 when the archive is complete but some cell
    // had incomplete runs.
    return report.incomplete_runs ? 1 : 0;
  } catch (const ucr::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
