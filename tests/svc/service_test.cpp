// SweepService + the socket protocol, end to end in-process: submit /
// stream round-trips match a direct run byte for byte, a warm resubmit is
// 100% cache hits, cancellation stops at a cell boundary, malformed
// requests answer errors without killing the daemon, and the server does
// not hold a thread per connection it has ever served.
#include "svc/service.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace ucr::svc {
namespace {

namespace fs = std::filesystem;

/// A small but non-trivial sweep as canonical spec text.
std::string small_spec_text() {
  exp::SpecFile file;
  file.spec.runs = 2;
  file.spec.seed = 321;
  file.spec.with_ks({10, 30});
  file.spec.with_arrival(exp::ArrivalSpec::batch());
  file.spec.with_arrival(exp::ArrivalSpec::poisson(0.3));
  for (const auto& p : paper_protocols()) file.spec.with_protocol(p.name);
  return exp::to_text(file);
}

/// The JSONL a direct `--format=jsonl` run of the same spec emits.
std::string direct_jsonl(const std::string& spec_text) {
  const exp::SpecFile file = exp::parse_spec(spec_text);
  const exp::ExperimentPlan plan =
      exp::compile(file.spec, default_catalogue());
  std::ostringstream out;
  exp::JsonlSink sink(out);
  exp::run(plan, {&sink}, {2});
  return out.str();
}

/// This process's virtual memory size in kB (VmSize in /proc/self/status).
std::uint64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

TEST(SweepService, SubmitWaitRowsMatchesDirectRun) {
  const std::string text = small_spec_text();
  SweepService service({"", 2});
  const std::string id = service.submit(text);
  EXPECT_EQ(id, "job-1");

  std::vector<std::string> rows;
  std::size_t cursor = 0;
  JobStatus status;
  do {
    std::vector<std::string> fresh;
    status = service.wait_rows(id, cursor, fresh);
    cursor += fresh.size();
    for (auto& row : fresh) rows.push_back(std::move(row));
  } while (!job_state_terminal(status.state) ||
           cursor < status.completed_cells);

  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.completed_cells, status.total_cells);
  EXPECT_EQ(status.cache_hits, 0u);
  EXPECT_TRUE(status.error.empty());

  std::string streamed;
  for (const auto& row : rows) streamed += row + "\n";
  EXPECT_EQ(streamed, direct_jsonl(text));
  service.stop();
}

TEST(SweepService, WarmResubmitIsAllCacheHits) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "ucr_service_cache_test";
  fs::remove_all(root);
  {
    SweepService service({root.string(), 2});
    const std::string text = small_spec_text();
    const JobStatus first = service.wait(service.submit(text));
    EXPECT_EQ(first.state, JobState::kDone);
    EXPECT_EQ(first.cache_hits, 0u);
    const JobStatus second = service.wait(service.submit(text));
    EXPECT_EQ(second.state, JobState::kDone);
    EXPECT_EQ(second.cache_hits, second.total_cells);
    // Both jobs stream identical rows.
    std::vector<std::string> rows_a, rows_b;
    service.wait_rows(first.id, 0, rows_a);
    service.wait_rows(second.id, 0, rows_b);
    EXPECT_EQ(rows_a, rows_b);
    service.stop();
  }
  // The cache outlives the service: a fresh daemon replays it too.
  {
    SweepService service({root.string(), 2});
    const JobStatus replay = service.wait(service.submit(small_spec_text()));
    EXPECT_EQ(replay.cache_hits, replay.total_cells);
    service.stop();
  }
  fs::remove_all(root);
}

TEST(SweepService, MalformedSpecIsRejectedAtSubmitTime) {
  SweepService service({"", 1});
  EXPECT_THROW(service.submit("not a spec"), ContractViolation);
  EXPECT_THROW(service.submit("spec_version = 1\nprotocols = Nope\n"),
               ContractViolation);
  EXPECT_THROW(service.status("job-9"), ContractViolation);
  service.stop();
}

TEST(SweepService, CancelStopsAQueuedJob) {
  SweepService service({"", 1});
  // Two jobs: the first occupies the executor, the second is cancelled
  // while still queued and never runs.
  const std::string first = service.submit(small_spec_text());
  const std::string second = service.submit(small_spec_text());
  service.cancel(second);
  const JobStatus final_second = service.wait(second);
  if (final_second.state == JobState::kCancelled) {
    // The normal interleaving: the cancel landed while job-2 was still
    // queued behind job-1, so it never ran a cell.
    EXPECT_EQ(final_second.completed_cells, 0u);
  } else {
    // The executor finished job-1 and popped job-2 between our submit and
    // cancel — then the job legitimately ran to completion.
    EXPECT_EQ(final_second.state, JobState::kDone);
  }
  EXPECT_EQ(service.wait(first).state, JobState::kDone);
  service.stop();
}

TEST(ServerRoundTrip, SocketProtocolMatchesDirectRun) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "ucr_server_test";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string socket_path = (root / "d.sock").string();

  SweepService service({(root / "cache").string(), 2});
  const int listen_fd = listen_unix(socket_path);
  std::thread server([&] {
    run_server(listen_fd, socket_path, sweep_verbs(service, listen_fd));
  });

  const std::string text = small_spec_text();
  const json::Value pong = request(socket_path, simple_request("ping"));
  EXPECT_TRUE(pong.at("pong").as_bool());

  // Submit + stream, twice: identical bytes, second run fully cached.
  std::string first_rows, second_rows;
  const json::Value submitted =
      request(socket_path, submit_request(text));
  const StreamResult first =
      stream_job(socket_path, submitted.at("job").as_string(),
                 [&](const std::string& row) { first_rows += row + "\n"; });
  EXPECT_EQ(first.state, "done");
  EXPECT_EQ(first.cache_hits, 0u);

  const json::Value resubmitted =
      request(socket_path, submit_request(text));
  const StreamResult second = stream_job(
      socket_path, resubmitted.at("job").as_string(),
      [&](const std::string& row) { second_rows += row + "\n"; });
  EXPECT_EQ(second.state, "done");
  EXPECT_EQ(second.completed, second.total);
  EXPECT_EQ(second.cache_hits, second.total);

  const std::string direct = direct_jsonl(text);
  EXPECT_EQ(first_rows, direct);
  EXPECT_EQ(second_rows, direct);

  // Protocol errors answer without dropping the daemon.
  EXPECT_THROW(request(socket_path, "this is not json"),
               ContractViolation);
  EXPECT_THROW(request(socket_path, simple_request("frobnicate")),
               ContractViolation);
  EXPECT_THROW(request(socket_path, job_request("status", "job-99")),
               ContractViolation);
  const json::Value status =
      request(socket_path, job_request("status", "job-1"));
  EXPECT_EQ(status.at("state").as_string(), "done");

  // The raw status line is the --json tool contract: exact field names,
  // in the daemon's own encoding (request_raw passes the bytes through).
  const std::string raw =
      request_raw(socket_path, job_request("status", "job-1"));
  EXPECT_EQ(raw,
            "{\"ok\":true,\"job\":\"job-1\",\"state\":\"done\","
            "\"spec_hash\":\"" + first.spec_hash + "\"," +
            "\"total\":" + std::to_string(first.total) +
            ",\"completed\":" + std::to_string(first.completed) +
            ",\"cache_hits\":" + std::to_string(first.cache_hits) + "}");

  request(socket_path, simple_request("shutdown"));
  server.join();
  // The daemon unlinked its socket on the way out.
  EXPECT_FALSE(fs::exists(socket_path));
  service.stop();
  fs::remove_all(root);
}

TEST(ServerRoundTrip, FinishedConnectionsAreReaped) {
  // Every connection gets a handler thread, which keeps its stack mapped
  // until joined. Were finished handlers held until shutdown, 500 pings
  // would grow the address space by ~4 GB, and a busy daemon would abort
  // at the kernel's map-count limit.
  const fs::path root = fs::path(::testing::TempDir()) / "ucr_reap_test";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string socket_path = (root / "d.sock").string();
  // One malloc arena for the whole process: a handler that starts before
  // the previous one has exited would otherwise claim a fresh 64 MB arena
  // reservation — allocator noise, bounded by the core count, that would
  // swamp the per-thread signal measured here.
  mallopt(M_ARENA_MAX, 1);
  const int listen_fd = listen_unix(socket_path);
  std::thread server([&] { run_server(listen_fd, socket_path, {}); });

  // Warm up first, so allocator arenas and the stack cache are in place.
  for (int i = 0; i < 50; ++i) request(socket_path, simple_request("ping"));
  const std::uint64_t before = vm_size_kb();
  for (int i = 0; i < 500; ++i) {
    const json::Value pong = request(socket_path, simple_request("ping"));
    EXPECT_TRUE(pong.at("pong").as_bool());
  }
  const std::uint64_t after = vm_size_kb();
  EXPECT_LT(after, before + 64 * 1024)
      << "VmSize " << before << " kB -> " << after << " kB";

  stop_server(listen_fd);
  server.join();
  EXPECT_FALSE(fs::exists(socket_path));
  fs::remove_all(root);
}

}  // namespace
}  // namespace ucr::svc
