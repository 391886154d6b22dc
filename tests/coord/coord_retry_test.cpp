// The coordinator contract (coord/coordinator.hpp), unit and end to end:
// shard work units, per-shard output validation, the machine-readable
// status encoding and the control socket that serves it, and the
// acceptance property itself — a real worker
// fleet with a rigged mid-shard death (UCR_ABORT_MODE=kill through the
// generic exec launcher) still assembles an archive byte-identical to
// the in-process pipeline, with the death absorbed by a retry.
#include "coord/coordinator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "coord/workers.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "sim/resultio.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace ucr::coord {
namespace {

namespace fs = std::filesystem;

/// The small two-protocol grid every end-to-end test here sweeps: six
/// cells, so three shards hold two cells each — enough for the rigged
/// worker (which dies when its second cell is emitted) to always die
/// mid-shard.
exp::SpecFile test_spec() {
  exp::SpecFile file;
  file.spec.with_protocol("One-Fail Adaptive")
      .with_protocol("Exp Back-on/Back-off")
      .with_ks({10, 20, 30});
  file.spec.runs = 2;
  file.spec.seed = 4242;
  file.threads = 1;
  file.format = exp::OutputFormat::kJsonl;
  return file;
}

/// Writes the spec under `root` and returns its path.
std::string write_spec(const fs::path& root, const exp::SpecFile& file) {
  const fs::path path = root / "base.spec";
  std::ofstream out(path);
  out << exp::to_text(file);
  return path.string();
}

/// Reference bytes: the identical sweep through the in-process pipeline.
std::string reference_jsonl(const exp::SpecFile& file) {
  const exp::ExperimentPlan plan =
      exp::compile(file.spec, default_catalogue());
  std::ostringstream out;
  exp::JsonlSink sink(out);
  std::vector<exp::ResultSink*> sinks{&sink};
  exp::RunOptions options;
  options.threads = 1;
  exp::run(plan, sinks, options);
  return out.str();
}

fs::path fresh_root(const std::string& name) {
  const fs::path root = fs::path(::testing::TempDir()) / name;
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

TEST(ShardUnit, IsTheBaseWithOnlyShardFormatAndThreadsChanged) {
  // The base is an overlay, and both its files are gone before run(): a
  // unit is the loaded base's canonical text, so it needs neither, and
  // it loads back to that base with only the shard, the output format and
  // the thread override changed — the same spec_hash.
  const fs::path root = fresh_root("ucr_coord_unit_test");
  const std::string base_path = write_spec(root, test_spec());
  const fs::path overlay_path = root / "overlay.spec";
  std::ofstream(overlay_path) << "spec_version = 1\ninclude = base.spec\n"
                                 "runs = 1\n";
  exp::SpecFile loaded = test_spec();
  loaded.spec.runs = 1;

  for (const bool overrides : {false, true}) {
    CoordinatorOptions options;
    options.spec_path = overlay_path.string();
    options.workers = parse_workers("local\n");
    options.work_dir = (root / ("work-" + std::to_string(overrides))).string();
    options.cli = UCR_CLI_PATH;
    options.shards = 3;
    if (overrides) {
      options.format = exp::OutputFormat::kCsv;
      options.worker_threads = 2;
    }
    Coordinator coordinator(options);
    if (overrides) {
      fs::remove(base_path);
      fs::remove(overlay_path);
    }
    std::ostringstream out;
    EXPECT_EQ(coordinator.run(out).rows, 6u);

    for (std::uint64_t i = 0; i < 3; ++i) {
      const exp::SpecFile unit = exp::load_spec_file(
          options.work_dir + "/shard-" + std::to_string(i) + ".spec");
      exp::SpecFile expected = loaded;
      expected.spec.shard.index = i;
      expected.spec.shard.count = 3;
      if (overrides) {
        expected.format = exp::OutputFormat::kCsv;
        expected.threads = 2;
      }
      EXPECT_EQ(unit, expected) << "shard " << i;
      EXPECT_EQ(exp::spec_hash(unit.spec), coordinator.spec_hash());
    }
  }
  fs::remove_all(root);
}

/// One CSV data row as CsvStreamSink writes it: `protocol`, k = 10,
/// runs = 2, mean_makespan 9.5, stamped with `hash`.
std::string csv_row(const std::string& hash,
                    const std::string& protocol = "proto") {
  AggregateRow row;
  row.protocol = protocol;
  row.k = 10;
  row.runs = 2;
  row.mean_makespan = 9.5;
  row.spec_hash = hash;
  std::ostringstream out;
  write_aggregate_row(out, row);
  return out.str();
}

/// validate_shard_output's ContractViolation message, or "" when it
/// accepts the text.
std::string rejection(const std::string& text, exp::OutputFormat format,
                      std::uint64_t shard, std::uint64_t rows,
                      const std::string& hash) {
  try {
    validate_shard_output(text, format, shard, rows, hash);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(ValidateShardOutput, EnforcesTheShardZeroHeaderContract) {
  std::ostringstream header;
  write_aggregate_header(header);
  const std::string hash = "00c0ffee00c0ffee";
  const std::string row = csv_row(hash);

  // Shard 0 must open with the aggregate CSV header; later shards must
  // not repeat it.
  EXPECT_NO_THROW(validate_shard_output(header.str() + row,
                                        exp::OutputFormat::kCsv, 0, 1, hash));
  EXPECT_THROW(
      validate_shard_output(row, exp::OutputFormat::kCsv, 0, 1, hash),
      ContractViolation);
  EXPECT_NO_THROW(
      validate_shard_output(row, exp::OutputFormat::kCsv, 3, 1, hash));
  EXPECT_THROW(validate_shard_output(header.str() + row,
                                     exp::OutputFormat::kCsv, 3, 1, hash),
               ContractViolation);
}

TEST(ValidateShardOutput, ReadsEveryCsvRowBack) {
  // Each row must read back through read_aggregate_csv, and its own
  // spec_hash column must be the plan's: a hash elsewhere in the row, a
  // short row or a non-finite number is refused, naming the shard and
  // the row, whatever the shard's place.
  std::ostringstream header;
  write_aggregate_header(header);
  const std::string hash = "00c0ffee00c0ffee";
  std::string inf_row = csv_row(hash);
  const std::size_t mean = inf_row.find(",9.500000,");
  ASSERT_NE(mean, std::string::npos) << inf_row;
  inf_row.replace(mean + 1, 8, "inf");
  const std::string bad_rows[] = {
      // The plan's hash in the protocol cell, another one in spec_hash.
      csv_row("1111111111111111", hash),
      // Five columns.
      "1,proto,10," + hash + ",9.5\n",
      inf_row,
  };
  for (const std::string& row : bad_rows) {
    for (const std::uint64_t shard : {0, 2}) {
      const std::string text = shard == 0 ? header.str() + row : row;
      const std::string why =
          rejection(text, exp::OutputFormat::kCsv, shard, 1, hash);
      EXPECT_NE(why.find("shard " + std::to_string(shard) + " row 0"),
                std::string::npos)
          << row << why;
    }
  }
  EXPECT_EQ(rejection(header.str() + csv_row(hash), exp::OutputFormat::kCsv,
                      0, 1, hash),
            "");

  // A later shard that repeats the header, counted as a row or not, and
  // a header repeated inside shard 0.
  const std::string row = csv_row(hash);
  for (const std::uint64_t rows : {1, 2}) {
    EXPECT_NE(rejection(header.str() + row, exp::OutputFormat::kCsv, 1, rows,
                        hash)
                  .find("shard 1: unexpected CSV header"),
              std::string::npos);
  }
  EXPECT_NE(rejection(header.str() + row + header.str() + row,
                      exp::OutputFormat::kCsv, 0, 3, hash)
                .find("shard 0 row 1"),
            std::string::npos);
  EXPECT_NE(rejection(row, exp::OutputFormat::kCsv, 0, 1, hash)
                .find("shard 0: missing or wrong CSV header"),
            std::string::npos);
}

TEST(ValidateShardOutput, ReadsEveryJsonlRowBack) {
  // Each line must parse as JSON with a spec_hash member: text that only
  // contains the member's spelling, or an object without it, is refused.
  const std::string hash = "00c0ffee00c0ffee";
  const std::string bad_rows[] = {
      "\"cell\":0,\"spec_hash\":\"" + hash + "\"\n",
      "{\"cell\":0,\"k\":10}\n",
  };
  for (const std::string& row : bad_rows) {
    EXPECT_NE(rejection(row, exp::OutputFormat::kJsonl, 1, 1, hash)
                  .find("shard 1 row 0"),
              std::string::npos)
        << row;
  }
}

TEST(ValidateShardOutput, CountsRowsAndChecksProvenance) {
  const std::string hash = "00c0ffee00c0ffee";
  const std::string row =
      "{\"cell\":0,\"spec_hash\":\"" + hash + "\",\"k\":10}\n";
  EXPECT_NO_THROW(validate_shard_output(row + row, exp::OutputFormat::kJsonl,
                                        1, 2, hash));
  // Too few / too many rows.
  EXPECT_THROW(
      validate_shard_output(row, exp::OutputFormat::kJsonl, 1, 2, hash),
      ContractViolation);
  EXPECT_THROW(validate_shard_output(row + row + row,
                                     exp::OutputFormat::kJsonl, 1, 2, hash),
               ContractViolation);
  // A row stamped with someone else's spec_hash is corruption, loudly.
  EXPECT_THROW(validate_shard_output(row, exp::OutputFormat::kJsonl, 1, 1,
                                     "1111111111111111"),
               ContractViolation);
  // A torn final line (worker killed mid-write) is a failure even when
  // the row count would otherwise look right.
  EXPECT_THROW(
      validate_shard_output(row + "{\"cell\":1,\"spec",
                            exp::OutputFormat::kJsonl, 1, 2, hash),
      ContractViolation);
  // Empty shard, empty output: valid.
  EXPECT_NO_THROW(
      validate_shard_output("", exp::OutputFormat::kJsonl, 1, 0, hash));
}

TEST(CoordStatusJson, FieldNamesAreAToolContract) {
  // Exact encoding: scripts parse these names (and ucr_coordctl --json
  // prints the line verbatim), so a rename must fail a test.
  CoordStatus status;
  status.state = "running";
  status.spec_hash = "00c0ffee00c0ffee";
  status.shards = 3;
  status.completed = 1;
  status.running = 1;
  status.pending = 1;
  status.attempts = 4;
  WorkerStatus worker;
  worker.name = "good-1";
  worker.capacity = 2;
  worker.busy = 1;
  worker.failures = 3;
  status.worker_states = {worker};
  EXPECT_EQ(coord_status_json(status),
            "{\"ok\":true,\"state\":\"running\","
            "\"spec_hash\":\"00c0ffee00c0ffee\",\"shards\":3,"
            "\"completed\":1,\"running\":1,\"pending\":1,\"attempts\":4,"
            "\"workers\":[{\"name\":\"good-1\",\"capacity\":2,\"busy\":1,"
            "\"failures\":3}]}");
}

TEST(CoordControl, SharedServerAnswersPingAndStatusOnly) {
  const fs::path root = fresh_root("ucr_coord_control_test");
  CoordinatorOptions options;
  options.spec_path = write_spec(root, test_spec());
  options.workers = parse_workers("local name=good-1\n");
  options.work_dir = (root / "work").string();
  const Coordinator coordinator(options);

  const std::string socket_path = (root / "c.sock").string();
  const int listen_fd = svc::listen_unix(socket_path);
  std::thread server([&] {
    svc::run_server(listen_fd, socket_path, control_verbs(coordinator));
  });

  EXPECT_EQ(svc::request_raw(socket_path, svc::simple_request("status")),
            coord_status_json(coordinator.status()));
  const std::string ping = svc::simple_request("ping");
  EXPECT_TRUE(svc::request(socket_path, ping).at("pong").as_bool());
  // The socket only observes a run: the sweep daemon's verbs are errors.
  EXPECT_THROW(svc::request(socket_path, svc::simple_request("shutdown")),
               ContractViolation);
  EXPECT_THROW(svc::request(socket_path, svc::submit_request("runs = 1\n")),
               ContractViolation);
  {
    // ...that keep the connection open.
    svc::LineSocket connection = svc::connect_unix(socket_path);
    connection.send_line(svc::simple_request("shutdown"));
    EXPECT_EQ(connection.recv_line(),
              "{\"ok\":false,\"error\":\"unknown cmd 'shutdown' "
              "(ping, status)\"}");
    connection.send_line(svc::simple_request("status"));
    EXPECT_EQ(connection.recv_line(), coord_status_json(coordinator.status()));
  }

  svc::stop_server(listen_fd);
  server.join();
  EXPECT_FALSE(fs::exists(socket_path));
  fs::remove_all(root);
}

TEST(Coordinator, RejectsShardedAndTableBaseSpecs) {
  const fs::path root = fresh_root("ucr_coord_reject_test");
  exp::SpecFile sharded = test_spec();
  sharded.spec.shard = exp::ShardSpec::parse("1/3");
  CoordinatorOptions options;
  options.spec_path = write_spec(root, sharded);
  options.workers = parse_workers("local\n");
  options.work_dir = (root / "work").string();
  EXPECT_THROW(Coordinator{options}, ContractViolation);

  exp::SpecFile table = test_spec();
  table.format = exp::OutputFormat::kTable;
  options.spec_path = write_spec(root, table);
  EXPECT_THROW(Coordinator{options}, ContractViolation);
  // ...unless the coordinator overrides the format, flag-wins style.
  options.format = exp::OutputFormat::kJsonl;
  EXPECT_NO_THROW(Coordinator{options});
  fs::remove_all(root);
}

TEST(Coordinator, ClampsShardCountToTheGrid) {
  const fs::path root = fresh_root("ucr_coord_clamp_test");
  CoordinatorOptions options;
  options.spec_path = write_spec(root, test_spec());
  options.workers = parse_workers("local capacity=16\n");
  options.work_dir = (root / "work").string();
  // Fleet capacity 16, but the grid has only 6 cells.
  EXPECT_EQ(Coordinator(options).shards(), 6u);
  options.shards = 4;
  EXPECT_EQ(Coordinator(options).shards(), 4u);
  fs::remove_all(root);
}

TEST(CoordinatorE2E, KilledWorkerIsRetriedAndTheArchiveIsByteIdentical) {
  const fs::path root = fresh_root("ucr_coord_retry_test");
  const exp::SpecFile file = test_spec();

  CoordinatorOptions options;
  options.spec_path = write_spec(root, file);
  options.work_dir = (root / "work").string();
  options.cli = UCR_CLI_PATH;
  options.shards = 3;
  // The killer is first, so round-robin hands it shard 0 immediately; it
  // dies (hard, exit 137) when its second cell is emitted. The two local
  // workers absorb the retry.
  WorkerSpec killer;
  killer.kind = WorkerSpec::Kind::kExec;
  killer.name = "killer";
  killer.exec_prefix = {"env", "UCR_ABORT_AFTER_CELLS=1",
                        "UCR_ABORT_MODE=kill"};
  options.workers = {killer, parse_workers("local name=good-1\n")[0],
                     parse_workers("local name=good-2\n")[0]};

  Coordinator coordinator(options);
  ASSERT_EQ(coordinator.shards(), 3u);
  std::ostringstream assembled;
  const CoordReport report = coordinator.run(assembled);

  EXPECT_EQ(assembled.str(), reference_jsonl(file));
  EXPECT_EQ(report.rows, 6u);
  EXPECT_EQ(report.shards, 3u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.attempts, 3 + report.retries);
  EXPECT_FALSE(report.incomplete_runs);

  const CoordStatus status = coordinator.status();
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.completed, 3u);
  EXPECT_EQ(status.pending, 0u);
  fs::remove_all(root);
}

TEST(CoordinatorE2E, ExhaustedAttemptsFailLoudlyNamingTheShard) {
  const fs::path root = fresh_root("ucr_coord_terminal_test");
  CoordinatorOptions options;
  options.spec_path = write_spec(root, test_spec());
  options.work_dir = (root / "work").string();
  options.cli = UCR_CLI_PATH;
  options.shards = 1;
  options.max_attempts = 2;
  // The only worker always dies: two attempts, then a terminal failure.
  WorkerSpec killer;
  killer.kind = WorkerSpec::Kind::kExec;
  killer.name = "killer";
  killer.exec_prefix = {"env", "UCR_ABORT_AFTER_CELLS=0",
                        "UCR_ABORT_MODE=kill"};
  options.workers = {killer};

  Coordinator coordinator(options);
  std::ostringstream out;
  try {
    coordinator.run(out);
    FAIL() << "terminal failure did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0 failed 2/2 attempts"), std::string::npos)
        << what;
  }
  EXPECT_EQ(coordinator.status().state, "failed");
  fs::remove_all(root);
}

TEST(CoordinatorE2E, HeartbeatKillsWorkersThatStopProducingOutput) {
  const fs::path root = fresh_root("ucr_coord_heartbeat_test");
  CoordinatorOptions options;
  options.spec_path = write_spec(root, test_spec());
  options.work_dir = (root / "work").string();
  options.cli = UCR_CLI_PATH;
  options.shards = 1;
  options.max_attempts = 1;
  options.heartbeat_seconds = 0.25;
  // `sh -c 'sleep 30'` swallows the appended ucr_cli argv (it lands in
  // $0/$@) and never writes a byte of output — exactly a hung machine.
  WorkerSpec hung;
  hung.kind = WorkerSpec::Kind::kExec;
  hung.name = "hung";
  hung.exec_prefix = {"sh", "-c", "sleep 30"};
  options.workers = {hung};

  Coordinator coordinator(options);
  std::ostringstream out;
  try {
    coordinator.run(out);
    FAIL() << "hung worker did not trip the heartbeat";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("heartbeat"), std::string::npos) << what;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace ucr::coord
