// Child-process plumbing for the sweep coordinator: spawn an argv with
// stdout/stderr redirected to files, wait for and poll for exit, and
// kill stragglers. Deliberately minimal — the coordinator's scheduling
// loop (coord/coordinator.cpp) is the only consumer, and everything it
// needs from a worker is "running / exited with status / dead".
#pragma once

#include <sys/types.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace ucr::coord {

/// fork/execvp's `argv` (argv[0] resolved through PATH) with stdout
/// truncate-redirected to `stdout_path` and stderr append-redirected to
/// `stderr_path`. Returns the child pid; throws ContractViolation when
/// the fork fails. An exec failure inside the child surfaces as exit
/// status 127 (the shell convention), with the reason appended to
/// `stderr_path`.
pid_t spawn_process(const std::vector<std::string>& argv,
                    const std::string& stdout_path,
                    const std::string& stderr_path);

/// Non-blocking reap: nullopt while the child is still running, else its
/// exit code (128 + signal for a signal death, mirroring the shell).
/// Throws ContractViolation when `pid` is not a child of this process.
std::optional<int> try_wait(pid_t pid);

/// Returns once any child in `pids` has exited or after `timeout`,
/// whichever comes first. Reaps nothing: try_wait still reports the exit
/// code. Polls one pidfd per child; where pidfd_open is unavailable
/// (kernels before 5.3, seccomp filters) it sleeps `timeout`.
void wait_for_exit(const std::vector<pid_t>& pids,
                   std::chrono::milliseconds timeout);

/// SIGKILLs the child and reaps it (blocking — SIGKILL cannot be
/// ignored). Safe to call on an already-exited-but-unreaped child.
void kill_process(pid_t pid);

}  // namespace ucr::coord
