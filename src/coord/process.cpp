#include "coord/process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.hpp"

namespace ucr::coord {

namespace {

/// Opens `path` for the child's fd `target` (O_CLOEXEC deliberately NOT
/// set — the descriptor must survive the exec). Child-side only: failure
/// writes a note to fd 2 and _exits 127.
void redirect_or_die(const char* path, int target, int flags) {
  const int fd = ::open(path, flags, 0644);
  if (fd < 0 || ::dup2(fd, target) < 0) {
    const char* message = "coord child: cannot open redirect target\n";
    (void)!::write(2, message, std::strlen(message));
    ::_exit(127);
  }
  if (fd != target) ::close(fd);
}

}  // namespace

pid_t spawn_process(const std::vector<std::string>& argv,
                    const std::string& stdout_path,
                    const std::string& stderr_path) {
  UCR_REQUIRE(!argv.empty(), "spawn_process: empty argv");
  // execvp wants mutable char*; build the array before forking so the
  // child does no allocation between fork and exec.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  UCR_REQUIRE(pid >= 0,
              std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Child: redirect, then exec. Only async-signal-safe calls from here.
    redirect_or_die(stdout_path.c_str(), 1,
                    O_WRONLY | O_CREAT | O_TRUNC);
    redirect_or_die(stderr_path.c_str(), 2,
                    O_WRONLY | O_CREAT | O_APPEND);
    ::execvp(cargv[0], cargv.data());
    const char* prefix = "coord child: exec failed: ";
    (void)!::write(2, prefix, std::strlen(prefix));
    const char* reason = std::strerror(errno);
    (void)!::write(2, reason, std::strlen(reason));
    (void)!::write(2, "\n", 1);
    ::_exit(127);
  }
  return pid;
}

std::optional<int> try_wait(pid_t pid) {
  int status = 0;
  const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
  UCR_REQUIRE(reaped >= 0, "waitpid(" + std::to_string(pid) +
                               ") failed: " + std::strerror(errno));
  if (reaped == 0) return std::nullopt;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 128;  // stopped/continued should not reach here under WNOHANG
}

void wait_for_exit(const std::vector<pid_t>& pids,
                   std::chrono::milliseconds timeout) {
  std::vector<pollfd> fds;
#ifdef SYS_pidfd_open
  for (const pid_t pid : pids) {
    const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (fd >= 0) fds.push_back({fd, POLLIN, 0});
  }
#else
  (void)pids;
#endif
  // An interrupted poll just returns early; the caller rescans anyway.
  (void)::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
  for (const pollfd& fd : fds) ::close(fd.fd);
}

void kill_process(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace ucr::coord
