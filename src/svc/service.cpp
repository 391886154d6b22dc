#include "svc/service.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"

namespace ucr::svc {

namespace {

/// Thrown out of the capture sink to abort a cancelled job's sweep; never
/// escapes run_job().
struct JobCancelled {};

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  UCR_CHECK(false, "unreachable JobState");
  return "";
}

bool job_state_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

struct SweepService::Job {
  std::string id;
  exp::ExperimentPlan plan;
  /// Effective sweep worker threads (service override, else the spec's).
  unsigned threads = 0;
  JobState state = JobState::kQueued;
  std::size_t cache_hits = 0;
  bool cancel_requested = false;
  /// Completed JSONL rows in grid order, no trailing newline.
  std::vector<std::string> rows;
  std::string error;
};

SweepService::SweepService(Options options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    cache_ = std::make_unique<ResultCache>(options_.cache_dir);
  }
  executor_ = std::thread(&SweepService::executor_loop, this);
}

SweepService::~SweepService() { stop(); }

std::string SweepService::submit(const std::string& spec_text) {
  // Parse + compile before touching any shared state: every spec error
  // surfaces here, on the submitter's thread, as a ContractViolation.
  exp::SpecFile file = exp::parse_spec(spec_text);
  exp::ExperimentPlan plan = exp::compile(file.spec, default_catalogue());

  auto job = std::make_unique<Job>();
  job->plan = std::move(plan);
  job->threads = options_.threads != 0 ? options_.threads : file.threads;

  std::lock_guard<std::mutex> lock(mutex_);
  UCR_REQUIRE(!stopping_, "sweep service is shutting down; submit rejected");
  job->id = "job-" + std::to_string(jobs_.size() + 1);
  Job* raw = job.get();
  jobs_.push_back(std::move(job));
  queue_.push_back(raw);
  changed_.notify_all();
  return raw->id;
}

SweepService::Job& SweepService::find_job(const std::string& job_id) const {
  for (const auto& job : jobs_) {
    if (job->id == job_id) return *job;
  }
  throw ContractViolation("unknown job id '" + job_id + "' (" +
                          std::to_string(jobs_.size()) +
                          " jobs submitted so far)");
}

JobStatus SweepService::status_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.spec_hash = job.plan.spec_hash;
  status.total_cells = job.plan.cells.size();
  status.completed_cells = job.rows.size();
  status.cache_hits = job.cache_hits;
  status.error = job.error;
  return status;
}

JobStatus SweepService::status(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_locked(find_job(job_id));
}

JobStatus SweepService::wait_rows(const std::string& job_id,
                                  std::size_t from_row,
                                  std::vector<std::string>& rows_out) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = find_job(job_id);
  changed_.wait(lock, [&] {
    return job.rows.size() > from_row || job_state_terminal(job.state);
  });
  for (std::size_t i = from_row; i < job.rows.size(); ++i) {
    rows_out.push_back(job.rows[i]);
  }
  return status_locked(job);
}

JobStatus SweepService::wait(const std::string& job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = find_job(job_id);
  changed_.wait(lock, [&] { return job_state_terminal(job.state); });
  return status_locked(job);
}

JobStatus SweepService::cancel(const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = find_job(job_id);
  if (!job_state_terminal(job.state)) {
    job.cancel_requested = true;
    // Queued jobs flip immediately; the executor skips cancelled entries.
    // Running jobs stop at their next completed cell (the capture sink
    // checks the flag before every emission).
    if (job.state == JobState::kQueued) job.state = JobState::kCancelled;
    changed_.notify_all();
  }
  return status_locked(job);
}

void SweepService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    changed_.notify_all();
  }
  if (executor_.joinable()) executor_.join();
}

void SweepService::executor_loop() {
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      changed_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = queue_.front();
      queue_.pop_front();
      if (job->state == JobState::kCancelled) continue;
      job->state = JobState::kRunning;
      changed_.notify_all();
    }
    run_job(*job);
  }
}

void SweepService::run_job(Job& job) {
  // Renders each completed cell with the ordinary JsonlSink (so the row
  // bytes match a direct `ucr_cli --format=jsonl` run of the same spec)
  // and appends it to the job under the service mutex. The cancel check
  // sits before the render: the aborted cell is already banked in the
  // cache (run() stores before emitting), it just never becomes a row.
  class Capture final : public exp::ResultSink {
   public:
    Capture(SweepService& service, Job& job)
        : service_(service), job_(job),
          jsonl_(buffer_, /*flush_each_row=*/false) {}

    void begin(const exp::ExperimentPlan& plan) override {
      jsonl_.begin(plan);
    }

    void emit(const exp::CellInfo& cell,
              const AggregateResult& result) override {
      {
        std::lock_guard<std::mutex> lock(service_.mutex_);
        if (job_.cancel_requested) throw JobCancelled{};
      }
      buffer_.str(std::string());
      jsonl_.emit(cell, result);
      std::string row = buffer_.str();
      if (!row.empty() && row.back() == '\n') row.pop_back();
      {
        std::lock_guard<std::mutex> lock(service_.mutex_);
        job_.rows.push_back(std::move(row));
      }
      service_.changed_.notify_all();
    }

   private:
    SweepService& service_;
    Job& job_;
    std::ostringstream buffer_;
    exp::JsonlSink jsonl_;
  };

  // Counts cache replays for the job's hit statistics; storage semantics
  // are the wrapped cache's.
  class CountingStore final : public exp::CellResultStore {
   public:
    CountingStore(SweepService& service, Job& job,
                  exp::CellResultStore& inner)
        : service_(service), job_(job), inner_(inner) {}

    std::optional<AggregateResult> load(const std::string& spec_hash,
                                        std::size_t cell_index) override {
      std::optional<AggregateResult> result =
          inner_.load(spec_hash, cell_index);
      if (result.has_value()) {
        std::lock_guard<std::mutex> lock(service_.mutex_);
        ++job_.cache_hits;
      }
      return result;
    }

    void store(const exp::CellTask& task,
               const AggregateResult& result) override {
      inner_.store(task, result);
    }

   private:
    SweepService& service_;
    Job& job_;
    exp::CellResultStore& inner_;
  };

  Capture capture(*this, job);
  std::optional<CountingStore> counting;
  exp::RunOptions run_options;
  run_options.threads = job.threads;
  if (cache_ != nullptr) {
    counting.emplace(*this, job, *cache_);
    run_options.cache = &*counting;
  }

  JobState final_state = JobState::kDone;
  std::string error;
  try {
    exp::run(job.plan, {&capture}, run_options);
  } catch (const JobCancelled&) {
    final_state = JobState::kCancelled;
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = final_state;
    job.error = std::move(error);
    changed_.notify_all();
  }
}

}  // namespace ucr::svc
