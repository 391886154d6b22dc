#include "coord/coordinator.hpp"

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "coord/process.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "sim/resultio.hpp"

namespace ucr::coord {

namespace {

namespace fs = std::filesystem;

/// Splits sink output into lines (no terminators); requires the text to
/// end at a line boundary — a torn final line means a worker died
/// mid-write, which must read as failure, not as a short row count.
std::vector<std::string> split_complete_lines(const std::string& text,
                                              const std::string& source) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t newline = text.find('\n', start);
    UCR_REQUIRE(newline != std::string::npos,
                source + ": output ends mid-line (torn write)");
    lines.push_back(text.substr(start, newline - start));
    start = newline + 1;
  }
  return lines;
}

/// Last `max_bytes` of a file, for failure messages; empty when
/// unreadable.
std::string tail_of_file(const std::string& path,
                         std::size_t max_bytes = 512) {
  std::ifstream in(path);
  if (!in.is_open()) return {};
  std::ostringstream text;
  text << in.rdbuf();
  std::string all = text.str();
  if (all.size() > max_bytes) all.erase(0, all.size() - max_bytes);
  return all;
}

}  // namespace

const char* shard_state_name(ShardStatus::State state) {
  switch (state) {
    case ShardStatus::State::kPending:
      return "pending";
    case ShardStatus::State::kRunning:
      return "running";
    case ShardStatus::State::kDone:
      return "done";
    case ShardStatus::State::kFailed:
      return "failed";
  }
  UCR_CHECK(false, "unreachable shard state");
  return "";
}

void validate_shard_output(const std::string& text, exp::OutputFormat format,
                           std::uint64_t shard_index,
                           std::uint64_t expected_rows,
                           const std::string& hash) {
  const std::string source = "shard " + std::to_string(shard_index);
  const std::vector<std::string> lines = split_complete_lines(text, source);
  const bool csv = format == exp::OutputFormat::kCsv;

  // The shard-0-only header contract: shard 0 opens with exactly the
  // aggregate CSV header, every other shard starts straight at rows.
  std::ostringstream header;
  if (csv) write_aggregate_header(header);
  const bool headed = csv && !lines.empty() && lines[0] + '\n' == header.str();
  UCR_REQUIRE(headed || !csv || shard_index != 0,
              source + ": missing or wrong CSV header on shard 0");
  UCR_REQUIRE(!headed || shard_index == 0,
              source + ": unexpected CSV header (only shard 0 emits it)");

  const std::size_t first_row = headed ? 1 : 0;
  const std::uint64_t rows = lines.size() - first_row;
  UCR_REQUIRE(rows == expected_rows,
              source + ": expected " + std::to_string(expected_rows) +
                  " data rows, found " + std::to_string(rows));

  // Every row must read back the way its sink wrote it, and its own
  // spec_hash (the CSV column, the JSONL member) must be the plan's.
  for (std::size_t i = first_row; i < lines.size(); ++i) {
    const std::string where = source + " row " + std::to_string(i - first_row);
    std::string row_hash;
    try {
      if (csv) {
        std::istringstream in(header.str() + lines[i]);
        const std::vector<AggregateRow> read = read_aggregate_csv(in);
        UCR_REQUIRE(read.size() == 1, "blank CSV row");
        row_hash = read[0].spec_hash;
      } else {
        row_hash = json::parse(lines[i]).at("spec_hash").as_string();
      }
    } catch (const ContractViolation& e) {
      throw ContractViolation(where + ": unreadable row (" + e.what() +
                              ") in: " + lines[i]);
    }
    UCR_REQUIRE(row_hash == hash, where + ": spec_hash mismatch (expected " +
                                      hash + ", found " + row_hash +
                                      ") in: " + lines[i]);
  }
}

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  UCR_REQUIRE(!options_.workers.empty(),
              "coordinator needs at least one worker");
  UCR_REQUIRE(options_.max_attempts >= 1,
              "coordinator max_attempts must be >= 1");
  UCR_REQUIRE(!options_.work_dir.empty(),
              "coordinator needs a work directory");
  UCR_REQUIRE(options_.heartbeat_seconds > 0,
              "coordinator heartbeat must be positive");

  // Every spec error surfaces here, before a single worker is spawned.
  base_ = exp::load_spec_file(options_.spec_path);
  UCR_REQUIRE(base_.spec.shard.is_whole(),
              "base spec '" + options_.spec_path + "' is already sharded (" +
                  base_.spec.shard.label() +
                  ") — the coordinator owns the shard axis");
  format_ = options_.format.value_or(base_.format);
  UCR_REQUIRE(format_ != exp::OutputFormat::kTable,
              "coordinator output must be a streaming format (csv or "
              "jsonl) — table output cannot be concatenated; set "
              "`format` in the spec or pass --format");

  const auto catalogue = default_catalogue();
  const exp::ExperimentPlan plan = exp::compile(base_.spec, catalogue);
  spec_hash_ = plan.spec_hash;

  std::uint64_t capacity = 0;
  for (const WorkerSpec& worker : options_.workers) {
    capacity += worker.capacity;
  }
  std::uint64_t shards =
      options_.shards == 0 ? capacity : options_.shards;
  if (shards > plan.total_cells) shards = plan.total_cells;
  if (shards == 0) shards = 1;

  // Per-shard expected row counts, straight from the compiler that will
  // govern the workers — the row-coverage check is pinned to the same
  // partition arithmetic the workers execute.
  shard_rows_.reserve(shards);
  shard_states_.reserve(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    exp::ExperimentSpec sharded = base_.spec;
    sharded.shard.index = i;
    sharded.shard.count = shards;
    const exp::ExperimentPlan shard_plan = exp::compile(sharded, catalogue);
    shard_rows_.push_back(shard_plan.cells.size());
    ShardStatus status;
    status.index = i;
    status.rows = shard_plan.cells.size();
    shard_states_.push_back(status);
  }
  for (const WorkerSpec& worker : options_.workers) {
    WorkerStatus status;
    status.name = worker.name;
    status.capacity = worker.capacity;
    worker_states_.push_back(status);
  }

  fs::create_directories(options_.work_dir);
}

std::string Coordinator::unit_path(std::uint64_t shard) const {
  return options_.work_dir + "/shard-" + std::to_string(shard) + ".spec";
}

std::string Coordinator::output_path(std::uint64_t shard,
                                     unsigned attempt) const {
  return options_.work_dir + "/shard-" + std::to_string(shard) +
         ".attempt-" + std::to_string(attempt) + ".out";
}

std::vector<std::string> Coordinator::worker_argv(
    const WorkerSpec& worker, std::uint64_t shard) const {
  std::vector<std::string> argv;
  if (worker.kind == WorkerSpec::Kind::kExec) argv = worker.exec_prefix;
  argv.push_back(options_.cli);
  argv.push_back("--spec=" + unit_path(shard));
  argv.push_back("--cache=" + options_.work_dir + "/cache-" + worker.name);
  return argv;
}

CoordStatus Coordinator::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CoordStatus status;
  status.state = run_state_;
  status.spec_hash = spec_hash_;
  status.shards = shard_states_.size();
  for (const ShardStatus& shard : shard_states_) {
    if (shard.state == ShardStatus::State::kDone) ++status.completed;
    if (shard.state == ShardStatus::State::kRunning) ++status.running;
    if (shard.state == ShardStatus::State::kPending) ++status.pending;
  }
  status.attempts = attempts_total_;
  status.shard_states = shard_states_;
  status.worker_states = worker_states_;
  return status;
}

std::string coord_status_json(const CoordStatus& status) {
  std::string out = "{\"ok\":true";
  out += ",\"state\":\"" + json::escape(status.state) + "\"";
  out += ",\"spec_hash\":\"" + status.spec_hash + "\"";
  out += ",\"shards\":" + std::to_string(status.shards);
  out += ",\"completed\":" + std::to_string(status.completed);
  out += ",\"running\":" + std::to_string(status.running);
  out += ",\"pending\":" + std::to_string(status.pending);
  out += ",\"attempts\":" + std::to_string(status.attempts);
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < status.worker_states.size(); ++i) {
    const WorkerStatus& worker = status.worker_states[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + json::escape(worker.name) + "\"";
    out += ",\"capacity\":" + std::to_string(worker.capacity);
    out += ",\"busy\":" + std::to_string(worker.busy);
    out += ",\"failures\":" + std::to_string(worker.failures);
    out += "}";
  }
  out += "]}";
  return out;
}

std::vector<svc::Verb> control_verbs(const Coordinator& coordinator) {
  auto on_status = [&coordinator](const json::Value&, svc::LineSocket& socket) {
    socket.send_line(coord_status_json(coordinator.status()));
  };
  return {{"status", on_status}};
}

struct Coordinator::Attempt {
  std::uint64_t shard = 0;
  std::size_t worker = 0;
  pid_t pid = -1;
  unsigned number = 1;  // 1-based attempt count for this shard
  std::string out_path;
  std::uintmax_t last_size = 0;
  std::chrono::steady_clock::time_point last_progress;
};

CoordReport Coordinator::run(std::ostream& out) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UCR_REQUIRE(!ran_, "Coordinator::run() is single-shot");
    ran_ = true;
    run_state_ = "running";
  }

  // Each work unit is the canonical text of the loaded base with its
  // shard, the output format and the thread override set, so a worker
  // needs no other file to run it.
  const std::uint64_t shards = shard_rows_.size();
  exp::SpecFile unit = base_;
  unit.format = format_;
  if (options_.worker_threads != 0) unit.threads = options_.worker_threads;
  for (std::uint64_t i = 0; i < shards; ++i) {
    unit.spec.shard.index = i;
    unit.spec.shard.count = shards;
    std::ofstream file(unit_path(i));
    UCR_REQUIRE(file.is_open(),
                "cannot write shard unit '" + unit_path(i) + "'");
    file << exp::to_text(unit);
  }

  std::deque<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < shards; ++i) pending.push_back(i);
  std::vector<std::set<std::size_t>> failed_on(shards);
  std::vector<std::string> accepted(shards);
  std::vector<Attempt> in_flight;
  CoordReport report;
  report.spec_hash = spec_hash_;
  report.shards = shards;
  std::uint64_t completed = 0;
  std::size_t round_robin = 0;

  const auto kill_in_flight = [&] {
    for (const Attempt& attempt : in_flight) kill_process(attempt.pid);
    in_flight.clear();
  };

  // One attempt ended (exit, bad output, or heartbeat kill). Accept it or
  // requeue the shard; throws — loudly, after killing every other worker —
  // when the shard is out of attempts.
  const auto finish_attempt = [&](const Attempt& attempt,
                                  std::optional<int> exit_code,
                                  const std::string& why) {
    const std::uint64_t shard = attempt.shard;
    std::string failure = why;
    if (failure.empty() && exit_code.has_value() && *exit_code > 1) {
      failure = "worker exited " + std::to_string(*exit_code);
    }
    if (failure.empty()) {
      try {
        validate_shard_output(
            read_text_file(attempt.out_path,
                           "shard " + std::to_string(shard) + " output"),
            format_, shard, shard_rows_[shard], spec_hash_);
      } catch (const ContractViolation& e) {
        failure = e.what();
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (failure.empty()) {
      accepted[shard] = attempt.out_path;
      shard_states_[shard].state = ShardStatus::State::kDone;
      shard_states_[shard].exit_code = *exit_code;
      if (*exit_code == 1) report.incomplete_runs = true;
      ++completed;
      return;
    }
    failed_on[shard].insert(attempt.worker);
    ++worker_states_[attempt.worker].failures;
    ++report.retries;
    const std::string worker_name = options_.workers[attempt.worker].name;
    if (shard_states_[shard].attempts >= options_.max_attempts) {
      shard_states_[shard].state = ShardStatus::State::kFailed;
      run_state_ = "failed";
      throw ContractViolation(
          "shard " + std::to_string(shard) + " failed " +
          std::to_string(shard_states_[shard].attempts) + "/" +
          std::to_string(options_.max_attempts) + " attempts; last on "
          "worker '" + worker_name + "': " + failure +
          "\nworker stderr tail:\n" + tail_of_file(attempt.out_path + ".log"));
    }
    shard_states_[shard].state = ShardStatus::State::kPending;
    pending.push_back(shard);
  };

  try {
    while (completed < shards) {
      if (const int signal = stop_signal_.load()) {
        throw ContractViolation("stopped by signal " + std::to_string(signal) +
                                " (" + ::strsignal(signal) + ")");
      }
      // Dispatch: capacity-weighted round-robin, preferring workers that
      // have not already failed the shard (retry lands elsewhere whenever
      // the fleet allows it).
      for (std::size_t scan = 0; scan < pending.size();) {
        const std::uint64_t shard = pending[scan];
        std::size_t chosen = options_.workers.size();
        const bool everywhere_failed =
            failed_on[shard].size() >= options_.workers.size();
        for (std::size_t step = 0; step < options_.workers.size(); ++step) {
          const std::size_t candidate =
              (round_robin + step) % options_.workers.size();
          std::lock_guard<std::mutex> lock(mutex_);
          if (worker_states_[candidate].busy >=
              options_.workers[candidate].capacity) {
            continue;
          }
          if (!everywhere_failed && failed_on[shard].count(candidate) > 0) {
            continue;
          }
          chosen = candidate;
          break;
        }
        if (chosen == options_.workers.size()) {
          ++scan;  // no eligible worker free right now; try later shards
          continue;
        }
        round_robin = (chosen + 1) % options_.workers.size();
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(scan));

        Attempt attempt;
        attempt.shard = shard;
        attempt.worker = chosen;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          attempt.number = ++shard_states_[shard].attempts;
          ++attempts_total_;
          ++worker_states_[chosen].busy;
          shard_states_[shard].state = ShardStatus::State::kRunning;
          shard_states_[shard].worker = options_.workers[chosen].name;
        }
        ++report.attempts;
        attempt.out_path = output_path(shard, attempt.number);
        attempt.pid =
            spawn_process(worker_argv(options_.workers[chosen], shard),
                          attempt.out_path, attempt.out_path + ".log");
        attempt.last_progress = std::chrono::steady_clock::now();
        in_flight.push_back(std::move(attempt));
      }

      // Reap and heartbeat.
      for (std::size_t i = 0; i < in_flight.size();) {
        Attempt& attempt = in_flight[i];
        const std::optional<int> exit_code = try_wait(attempt.pid);
        std::string why;
        bool ended = exit_code.has_value();
        if (!ended) {
          std::error_code ec;
          const std::uintmax_t size =
              fs::file_size(attempt.out_path, ec);
          const auto now = std::chrono::steady_clock::now();
          if (!ec && size > attempt.last_size) {
            attempt.last_size = size;
            attempt.last_progress = now;
          } else if (std::chrono::duration<double>(now -
                                                   attempt.last_progress)
                         .count() > options_.heartbeat_seconds) {
            kill_process(attempt.pid);
            why = "no output progress for " +
                  std::to_string(options_.heartbeat_seconds) +
                  "s (heartbeat timeout) — worker killed";
            ended = true;
          }
        }
        if (!ended) {
          ++i;
          continue;
        }
        const Attempt finished = std::move(attempt);
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(i));
        {
          std::lock_guard<std::mutex> lock(mutex_);
          --worker_states_[finished.worker].busy;
        }
        finish_attempt(finished, exit_code, why);
      }

      // Wake as soon as a worker exits; otherwise rescan output growth
      // for heartbeats every 10 ms.
      if (completed < shards) {
        std::vector<pid_t> pids;
        pids.reserve(in_flight.size());
        for (const Attempt& attempt : in_flight) pids.push_back(attempt.pid);
        wait_for_exit(pids, std::chrono::milliseconds(10));
      }
    }
  } catch (...) {
    kill_in_flight();
    std::lock_guard<std::mutex> lock(mutex_);
    run_state_ = "failed";
    throw;
  }

  // Assemble: shard order, already validated at acceptance — the
  // concatenation is byte-identical to the unsharded run by the pinned
  // sharding contract (shard 0 carries the only header).
  for (std::uint64_t i = 0; i < shards; ++i) {
    out << read_text_file(accepted[i],
                          "shard " + std::to_string(i) + " output");
    report.rows += shard_rows_[i];
  }
  out.flush();

  std::lock_guard<std::mutex> lock(mutex_);
  run_state_ = "done";
  return report;
}

}  // namespace ucr::coord
