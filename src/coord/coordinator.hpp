// The distributed sweep coordinator — the driver the sharding contract
// was designed for (docs/SERVICE.md).
//
// One Coordinator owns one sweep: it loads a base spec file, partitions
// the flattened grid into `--shard=i/N` work units, fans them out over a
// worker fleet (coord/workers.hpp) as ucr_cli child invocations, watches
// each worker with an output-progress heartbeat, retries failed or
// timed-out shards on other workers (bounded attempts, loud terminal
// failure), and concatenates the per-shard sinks in shard order. Each
// work unit written to the work directory is the canonical text
// (exp/spec_io.hpp to_text) of the loaded base spec with `shard = i/N`,
// the output format and the thread override set — so a worker runs the
// exact `ucr_cli --spec=FILE` code path every single-machine sweep runs,
// on a self-contained file with the base's spec_hash, whatever spec
// `--spec` accepts (an overlay included) the base was.
//
// Correctness rests on contracts the repository already pins: shard
// concatenation is byte-identical to the unsharded run (shards emit their
// sink header on shard 0 only), and every archived row carries the
// shard-invariant spec_hash. The coordinator *checks* both on every
// shard before splicing it in — validate_shard_output() below reads each
// row back the way its sink wrote it — so a half-written or malformed
// file from a failed worker can never silently corrupt the assembled
// archive; it is retried like any other failure. Determinism
// is also what makes reassignment free of correctness risk: any worker,
// any attempt, produces the same bytes for shard i. With worker caches
// on, a retried shard on a warm worker replays its banked cells
// (svc/result_cache.hpp) instead of recomputing them.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "coord/workers.hpp"
#include "exp/spec_io.hpp"
#include "svc/server.hpp"

namespace ucr::coord {

struct CoordinatorOptions {
  /// Base spec file. Must be unsharded (the coordinator owns the shard
  /// axis) and must select a streaming format — table output cannot be
  /// concatenated (override with `format` below).
  std::string spec_path;
  /// The fleet (coord/workers.hpp). Dispatch is capacity-weighted
  /// round-robin; a shard is retried on a worker that has not already
  /// failed it whenever one exists.
  std::vector<WorkerSpec> workers;
  /// Shard count; 0 means the fleet's total capacity. Clamped to the
  /// grid size so no shard is empty.
  std::uint64_t shards = 0;
  /// ucr_cli binary the workers run (exec workers receive it verbatim
  /// after their argv prefix).
  std::string cli = "ucr_cli";
  /// Scratch root for work units, per-attempt outputs, worker logs and
  /// worker caches. Created if missing; never deleted here. Each worker
  /// gets its own ResultCache under it, so a retried shard on a warm
  /// worker replays banked cells instead of recomputing.
  std::string work_dir;
  /// Attempts per shard before the whole run fails loudly.
  unsigned max_attempts = 3;
  /// A running shard whose output file has not grown for this long is
  /// declared dead: the worker process is killed and the shard retried.
  double heartbeat_seconds = 60.0;
  /// Output format override written into the work units (flag-wins,
  /// like ucr_cli --format). Required when the base spec says `table`.
  std::optional<exp::OutputFormat> format;
  /// Worker threads per shard invocation (0 keeps the spec's own value).
  unsigned worker_threads = 0;
};

/// One shard's scheduling state, as status() reports it.
struct ShardStatus {
  enum class State { kPending, kRunning, kDone, kFailed };

  std::uint64_t index = 0;
  State state = State::kPending;
  unsigned attempts = 0;
  /// Worker currently running (or last to run) this shard.
  std::string worker;
  /// Data rows this shard must produce (its compiled cell count).
  std::uint64_t rows = 0;
  /// Exit code of the accepted attempt; -1 before completion.
  int exit_code = -1;
};

const char* shard_state_name(ShardStatus::State state);

struct WorkerStatus {
  std::string name;
  unsigned capacity = 1;
  /// Shards currently in flight on this worker.
  unsigned busy = 0;
  /// Attempts that died on this worker (exit, validation, heartbeat).
  unsigned failures = 0;
};

/// Snapshot of the whole run, served over the control socket
/// (control_verbs below) and rendered by ucr_coordctl.
struct CoordStatus {
  /// "pending" | "running" | "done" | "failed".
  std::string state = "pending";
  std::string spec_hash;
  std::uint64_t shards = 0;
  std::uint64_t completed = 0;
  std::uint64_t running = 0;
  std::uint64_t pending = 0;
  /// Worker invocations launched so far; attempts - completed - running
  /// is the number of failures absorbed by retries.
  std::uint64_t attempts = 0;
  std::vector<ShardStatus> shard_states;
  std::vector<WorkerStatus> worker_states;
};

/// Final accounting of a successful run().
struct CoordReport {
  std::string spec_hash;
  std::uint64_t shards = 0;
  std::uint64_t attempts = 0;
  /// Attempts that failed and were re-dispatched.
  std::uint64_t retries = 0;
  /// Total data rows spliced into the output.
  std::uint64_t rows = 0;
  /// True when any shard exited 1 (cells with incomplete runs — the
  /// output is still complete and byte-exact; mirrors ucr_cli's exit 1).
  bool incomplete_runs = false;
};

/// Validates one shard's sink output before it is spliced into the
/// assembled archive: the text ends at a line boundary, shard 0 (and
/// only shard 0) opens with the CSV header, the data-row count equals
/// `expected_rows`, and every row reads back the way its sink wrote it —
/// a CSV row through read_aggregate_csv (sim/resultio.hpp), a JSONL row
/// through json::parse — with `hash` as its own spec_hash (the CSV
/// column, the JSONL member). Throws ContractViolation naming the shard
/// and the first offending row.
void validate_shard_output(const std::string& text, exp::OutputFormat format,
                           std::uint64_t shard_index,
                           std::uint64_t expected_rows,
                           const std::string& hash);

class Coordinator {
 public:
  /// Loads and compiles the base spec (every spec error surfaces here,
  /// before any worker starts), clamps the shard count, and prepares the
  /// work directory. Throws ContractViolation on a sharded or
  /// table-format base spec, an empty fleet, or max_attempts == 0.
  explicit Coordinator(CoordinatorOptions options);

  /// Runs the sweep to completion: dispatch, heartbeat, retry,
  /// concatenate-with-validation into `out`. Returns the final report;
  /// throws ContractViolation (after killing every in-flight worker)
  /// when a shard exhausts max_attempts or the output fails validation.
  /// Call at most once.
  CoordReport run(std::ostream& out);

  /// Asks run() to stop as if `signal` had ended it. Async-signal-safe
  /// (one lock-free atomic store), so a signal handler may call it. run()
  /// checks on every scheduling pass, at least every 10 ms, and then
  /// fails like an exhausted shard: it kills every in-flight worker and
  /// throws ContractViolation naming the signal.
  void stop(int signal) { stop_signal_.store(signal); }

  /// Thread-safe snapshot for the control plane; callable during run().
  CoordStatus status() const;

  /// The spec_hash of the compiled base sweep.
  const std::string& spec_hash() const { return spec_hash_; }

  /// Effective shard count after clamping.
  std::uint64_t shards() const { return shard_rows_.size(); }

 private:
  struct Attempt;

  std::string unit_path(std::uint64_t shard) const;
  std::string output_path(std::uint64_t shard, unsigned attempt) const;
  std::vector<std::string> worker_argv(const WorkerSpec& worker,
                                       std::uint64_t shard) const;

  CoordinatorOptions options_;
  exp::SpecFile base_;
  exp::OutputFormat format_ = exp::OutputFormat::kJsonl;
  std::string spec_hash_;
  /// Expected data rows per shard (compiled cell counts).
  std::vector<std::uint64_t> shard_rows_;

  mutable std::mutex mutex_;
  std::vector<ShardStatus> shard_states_;
  std::vector<WorkerStatus> worker_states_;
  std::string run_state_ = "pending";
  std::uint64_t attempts_total_ = 0;
  bool ran_ = false;
  std::atomic<int> stop_signal_{0};
  static_assert(std::atomic<int>::is_always_lock_free);
};

/// The status reply's JSON text:
///   {"ok":true,"state":...,"spec_hash":...,"shards":N,"completed":N,
///    "running":N,"pending":N,"attempts":N,"workers":[
///    {"name":...,"capacity":N,"busy":N,"failures":N}]}
/// The field names are a tool contract (scripts parse them); tests pin
/// them exactly.
std::string coord_status_json(const CoordStatus& status);

/// The coordinator's control-socket verbs for svc::run_server: `status`
/// answers coord_status_json(coordinator.status()). The socket only
/// observes a run — ucr_coordd's command line drives it — so there is no
/// other verb; Coordinator::status() is thread-safe, so the verbs hold
/// only a const reference.
std::vector<svc::Verb> control_verbs(const Coordinator& coordinator);

}  // namespace ucr::coord
