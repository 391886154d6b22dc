// Child-process plumbing (coord/process.hpp): wait_for_exit wakes when a
// child exits, times out on a running one, and reaps neither — try_wait
// still reports the exit code afterwards.
#include "coord/process.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

namespace ucr::coord {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

pid_t spawn_shell(const std::string& script, const std::string& name) {
  const std::string base = ::testing::TempDir() + "/coord_process_" + name;
  return spawn_process({"sh", "-c", script}, base + ".out", base + ".log");
}

/// Polls try_wait until the child is reaped (bounded: 5 s).
std::optional<int> reap(pid_t pid) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<int> code = try_wait(pid);
  while (!code && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
    code = try_wait(pid);
  }
  return code;
}

TEST(CoordProcess, WaitForExitWakesWhenAChildExits) {
  const pid_t pid = spawn_shell("exit 3", "exits");
  const auto start = Clock::now();
  wait_for_exit({pid}, std::chrono::seconds(5));
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
  EXPECT_EQ(reap(pid), 3);
}

TEST(CoordProcess, WaitForExitTimesOutWithoutReaping) {
  const pid_t pid = spawn_shell("sleep 0.5; exit 7", "sleeps");
  const auto start = Clock::now();
  wait_for_exit({pid}, milliseconds(100));
  EXPECT_GE(Clock::now() - start, milliseconds(100));
  EXPECT_EQ(try_wait(pid), std::nullopt);

  // Once the child has exited, waiting again returns without reaping it:
  // the exit code is still try_wait's to report.
  wait_for_exit({pid}, std::chrono::seconds(5));
  wait_for_exit({pid}, std::chrono::seconds(5));
  EXPECT_EQ(reap(pid), 7);
}

TEST(CoordProcess, WaitForExitWithNoChildrenSleepsTheTimeout) {
  const auto start = Clock::now();
  wait_for_exit({}, milliseconds(20));
  EXPECT_GE(Clock::now() - start, milliseconds(20));
}

}  // namespace
}  // namespace ucr::coord
