// SweepService — the sweep daemon's engine, separated from its wire
// protocol (svc/server.hpp) so tests can drive jobs in-process.
//
// A job is one spec text: submit() parses and compiles it immediately
// (malformed specs are rejected at submit time, they never become failed
// jobs), enqueues it FIFO, and returns a job id. A single executor thread
// drains the queue; each job runs the ordinary exp::run() pipeline — cells
// on its worker pool, the shared ResultCache attached when the service
// has one — with a capture sink that appends each JSONL row to the
// job as the grid prefix completes. Rows are byte-identical to
// `ucr_cli --spec=FILE --format=jsonl` on the same spec: same plan, same
// sink, same determinism contract (docs/SERVICE.md states the argument).
//
// Consumers poll status() or block in wait_rows(), which hands out rows
// incrementally in grid order — the server's `stream` verb is a loop over
// it. cancel() stops a queued job immediately and a running job at its
// next completed cell; cells finished before the cancellation are already
// banked in the cache, so a resubmit continues where the job stopped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/result_cache.hpp"

namespace ucr::svc {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* job_state_name(JobState state);

bool job_state_terminal(JobState state);

/// Snapshot of one job, as status() and the wire protocol report it.
struct JobStatus {
  std::string id;
  JobState state = JobState::kQueued;
  std::string spec_hash;
  std::size_t total_cells = 0;
  std::size_t completed_cells = 0;
  /// Cells replayed from the cache instead of executed.
  std::size_t cache_hits = 0;
  /// Failure reason; empty unless state is kFailed.
  std::string error;
};

class SweepService {
 public:
  struct Options {
    /// Result cache root; empty disables caching (every job computes
    /// every cell).
    std::string cache_dir;
    /// Worker threads per job; 0 honours each spec's own `threads` value
    /// (where 0 again means all hardware threads).
    unsigned threads = 0;
  };

  explicit SweepService(Options options);

  /// stop()s — destruction waits for the in-flight job.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Parses + compiles `spec_text` (ContractViolation propagates to the
  /// caller on any spec error) and enqueues the job. Returns its id
  /// ("job-1", "job-2", ... in submission order). Throws after stop().
  std::string submit(const std::string& spec_text);

  /// Current snapshot; throws ContractViolation on an unknown id.
  JobStatus status(const std::string& job_id) const;

  /// Blocks until the job has rows beyond `from_row` or is terminal, then
  /// appends every row in [from_row, completed) to `rows_out` (JSONL, no
  /// trailing newline, grid order) and returns the snapshot. Streaming a
  /// whole job is a loop: from_row = 0, then += rows_out.size().
  JobStatus wait_rows(const std::string& job_id, std::size_t from_row,
                      std::vector<std::string>& rows_out);

  /// Blocks until the job is terminal; returns the final snapshot.
  JobStatus wait(const std::string& job_id);

  /// Requests cancellation (idempotent; a no-op on terminal jobs) and
  /// returns the snapshot after the request. A queued job flips to
  /// kCancelled here; a running job stops at its next completed cell.
  JobStatus cancel(const std::string& job_id);

  /// Rejects further submits, waits for the queue to drain and the
  /// executor to exit. Queued jobs still run — cancel them first for a
  /// fast shutdown. Idempotent.
  void stop();

 private:
  struct Job;

  Job& find_job(const std::string& job_id) const;
  void executor_loop();
  void run_job(Job& job);
  JobStatus status_locked(const Job& job) const;

  Options options_;
  std::unique_ptr<ResultCache> cache_;

  mutable std::mutex mutex_;
  /// Signalled on every job state change and every appended row.
  mutable std::condition_variable changed_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::deque<Job*> queue_;
  bool stopping_ = false;
  std::thread executor_;
};

}  // namespace ucr::svc
