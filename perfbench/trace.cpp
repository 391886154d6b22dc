// perfbench_trace — the traced, in-process half of the repository
// benchmark (perfbench/README.md). It runs one workload's spec through the
// library's public entry points and times every call into a layer from
// outside the program:
//
//   load_spec_file -> compile -> exp::run (timing ResultSink around the
//   real CSV/JSONL sink, timing CellResultStore around svc::ResultCache)
//   -> warm exp::run (cache hits) -> per cell: CellTask::execute, then each
//   run replayed through run_single_fair / run_single_node and folded by
//   aggregate_runs -> ucr_servd warm resubmits -> Coordinator::run over
//   warm per-worker caches.
//
// Every replayed run and every served or fleet row is checked byte for
// byte against the reference computation; a mismatch is reported in the
// "errors" list of the result line. Spans (name, start, end, parent,
// workload) are kept in memory and written as JSONL at the end.
//
// Usage (run.py builds the arguments):
//   perfbench_trace --workload=NAME --spec=FILE --seed=N --threads=N
//       --tmp=DIR --cli=PATH --servd=PATH --rows-out=FILE --spans-out=FILE
//       [--kmax=N] [--format=csv|jsonl] [--reps=N]
//   perfbench_trace --print-bounds
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/samplers.hpp"
#include "coord/coordinator.hpp"
#include "coord/process.hpp"
#include "coord/workers.hpp"
#include "core/registry.hpp"
#include "exp/cell_task.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "sim/arrival.hpp"
#include "sim/runner.hpp"
#include "svc/client.hpp"
#include "svc/result_cache.hpp"

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Written once after each timed loop so the compiler cannot drop the
/// draws being timed.
volatile std::uint64_t g_keep = 0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  UCR_CHECK(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// In-memory span log. Spans may be opened from run()'s worker threads
/// (sink and store calls), so every access takes the mutex.
class Tracer {
 public:
  static constexpr std::ptrdiff_t kRoot = -1;

  explicit Tracer(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  std::size_t open(const std::string& name, std::ptrdiff_t parent) {
    const double now = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent});
    return spans_.size() - 1;
  }

  /// Closes a span and returns its duration in seconds.
  double close(std::size_t id) {
    const double now = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = now;
    return now - spans_[id].start;
  }

  void write_jsonl(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mutex_);
    os.precision(12);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
         << ",\"parent\":" << s.parent << ",\"workload\":\"" << workload_
         << "\"}\n";
    }
  }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children.
  std::map<std::string, double> self_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent != kRoot) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    std::ptrdiff_t parent;
  };

  std::string workload_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             std::ptrdiff_t parent = Tracer::kRoot)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() {
    if (!closed_) tracer_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now; returns its duration in seconds.
  double close() {
    closed_ = true;
    return tracer_.close(id_);
  }
  std::ptrdiff_t id() const { return static_cast<std::ptrdiff_t>(id_); }

 private:
  Tracer& tracer_;
  std::size_t id_;
  bool closed_ = false;
};

/// Times every call into the wrapped sink. run() serializes sink calls.
class TimingSink final : public ucr::exp::ResultSink {
 public:
  TimingSink(ucr::exp::ResultSink& inner, Tracer& tracer,
             std::ptrdiff_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  void begin(const ucr::exp::ExperimentPlan& plan) override {
    ScopedSpan span(tracer_, "exp.sink.begin", parent_);
    inner_.begin(plan);
    seconds += span.close();
  }
  void emit(const ucr::exp::CellInfo& cell,
            const ucr::AggregateResult& result) override {
    ScopedSpan span(tracer_, "exp.sink.emit", parent_);
    inner_.emit(cell, result);
    seconds += span.close();
    ++rows;
  }
  void end() override {
    ScopedSpan span(tracer_, "exp.sink.end", parent_);
    inner_.end();
    seconds += span.close();
  }

  double seconds = 0.0;
  std::uint64_t rows = 0;

 private:
  ucr::exp::ResultSink& inner_;
  Tracer& tracer_;
  std::ptrdiff_t parent_;
};

/// Times every call into the wrapped cache, split into hits and misses.
class TimingStore final : public ucr::exp::CellResultStore {
 public:
  TimingStore(ucr::svc::ResultCache& inner, Tracer& tracer,
              std::ptrdiff_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  std::optional<ucr::AggregateResult> load(const std::string& spec_hash,
                                           std::size_t cell_index) override {
    ScopedSpan span(tracer_, "cache.load", parent_);
    auto result = inner_.load(spec_hash, cell_index);
    const double elapsed = span.close();
    if (result.has_value()) {
      ++hits;
      hit_seconds += elapsed;
    } else {
      ++misses;
    }
    return result;
  }
  void store(const ucr::exp::CellTask& task,
             const ucr::AggregateResult& result) override {
    ScopedSpan span(tracer_, "cache.store", parent_);
    inner_.store(task, result);
    store_seconds += span.close();
    ++stores;
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  double hit_seconds = 0.0;
  double store_seconds = 0.0;

 private:
  ucr::svc::ResultCache& inner_;
  Tracer& tracer_;
  std::ptrdiff_t parent_;
};

/// Per-engine replay accumulator: seconds inside run_single_* and the work
/// unit it is normalized by (slots, or station-slots for the exact node
/// engine).
struct EngineTally {
  double seconds = 0.0;
  double units = 0.0;
  double ns_per_unit() const { return units > 0 ? seconds * 1e9 / units : 0; }
};

std::string render_row(const ucr::exp::ExperimentPlan& plan,
                       const ucr::exp::CellInfo& cell,
                       const ucr::AggregateResult& result) {
  std::ostringstream out;
  ucr::exp::JsonlSink sink(out, /*flush_each_row=*/false);
  sink.begin(plan);
  sink.emit(cell, result);
  sink.end();
  return out.str();
}

bool same_run(const ucr::RunMetrics& a, const ucr::RunMetrics& b) {
  return a.completed == b.completed && a.k == b.k && a.slots == b.slots &&
         a.deliveries == b.deliveries && a.silence_slots == b.silence_slots &&
         a.success_slots == b.success_slots &&
         a.collision_slots == b.collision_slots &&
         a.transmissions == b.transmissions &&
         a.expected_transmissions == b.expected_transmissions &&
         a.max_station_transmissions == b.max_station_transmissions &&
         a.latencies == b.latencies;
}

/// Station-slots of one exact node run: every station is active from its
/// arrival slot until its delivery (latency slots) or, undelivered, until
/// the run ended. Needs the run's delivery slots (record_deliveries).
double station_slots(const ucr::ArrivalPattern& arrivals,
                     const ucr::RunMetrics& run) {
  double arrived_gap = 0.0;  // sum over arrived stations of (slots - arrival)
  for (const std::uint64_t a : arrivals) {
    if (a < run.slots) arrived_gap += static_cast<double>(run.slots - a);
  }
  double latency_sum = 0.0;
  for (const std::uint64_t l : run.latencies) latency_sum += l;
  double delivery_end_sum = 0.0;  // sum of (delivery slot + 1)
  for (const std::uint64_t d : run.delivery_slots) delivery_end_sum += d + 1;
  // Delivered stations: arrival = delivery + 1 - latency, so their share of
  // arrived_gap is deliveries * slots - (delivery_end_sum - latency_sum).
  const double delivered_gap =
      static_cast<double>(run.deliveries) * static_cast<double>(run.slots) -
      (delivery_end_sum - latency_sum);
  return latency_sum + (arrived_gap - delivered_gap);
}

struct Options {
  std::string workload;
  std::string spec;
  std::uint64_t seed = 0;
  unsigned threads = 2;
  std::optional<std::uint64_t> kmax;
  std::optional<ucr::exp::OutputFormat> format;
  std::uint64_t reps = 1;
  std::string tmp;
  std::string cli;
  std::string servd;
  std::string rows_out;
  std::string spans_out;
};

class TraceRun {
 public:
  explicit TraceRun(Options options)
      : o_(std::move(options)), tracer_(o_.workload) {}

  int run() {
    micro_layers();
    spec_layers();
    sweep_layers();
    cell_layers();
    probe_missing_engines();
    daemon_layers();
    coord_layers();
    finish();
    return 0;
  }

 private:
  void error(const std::string& what) { errors_.push_back(what); }

  /// Median over `batches` of the mean ns per call of `body`, which makes
  /// `calls` calls; each batch is one span.
  template <typename Body>
  double ns_per_call(const std::string& name, int batches, std::uint64_t calls,
                     Body body) {
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
      ScopedSpan span(tracer_, name);
      body(calls);
      per_call.push_back(span.close() * 1e9 / static_cast<double>(calls));
    }
    return median(per_call);
  }

  // --- common/ and sim/arrival: fixed-input microtimers ------------------
  void micro_layers() {
    std::uint64_t sink = 0;
    ucr::CounterRng counter = ucr::CounterRng::stream(o_.seed, 1);
    std::vector<std::uint64_t> buf(4096);
    metrics_["rng.fill_u64_ns"] =
        ns_per_call("rng.fill_u64", 7, 2000, [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            counter.fill_u64(buf.data(), buf.size());
            sink += buf[i & 4095];
          }
        });
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(o_.seed, 2);
    for (const auto& [label, m] :
         {std::pair<const char*, std::uint64_t>{"m1e2", 100},
          {"m1e6", 1000000}}) {
      const double p = 1.0 / static_cast<double>(m);
      metrics_[std::string("samplers.slot_category_ns.") + label] =
          ns_per_call(std::string("samplers.slot_category.") + label, 7,
                      200000, [&](std::uint64_t n) {
                        for (std::uint64_t i = 0; i < n; ++i) {
                          sink += static_cast<std::uint64_t>(
                              ucr::sample_slot_category(rng, m, p));
                        }
                      });
    }
    metrics_["samplers.binomial_ns"] =
        ns_per_call("samplers.binomial", 7, 200000, [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            sink += ucr::sample_binomial(rng, 1000000, 1e-6);
          }
        });
    // poisson_arrivals at the dense workload's k and lower rate.
    metrics_["sim.poisson_arrivals_ms"] =
        ns_per_call("sim.poisson_arrivals", 5, 1, [&](std::uint64_t) {
          sink += ucr::poisson_arrivals(1000000, 0.01, rng).back();
        }) / 1e6;
    g_keep = sink;
  }

  // --- exp: spec_io and plan ---------------------------------------------
  void spec_layers() {
    std::vector<double> load_ms;
    for (int i = 0; i < 9; ++i) {
      ScopedSpan span(tracer_, "exp.load_spec_file");
      file_ = ucr::exp::load_spec_file(o_.spec);
      load_ms.push_back(span.close() * 1e3);
    }
    // The same overrides ucr_cli applies for --seed/--kmax/--threads/
    // --format, so the plan here is the plan the CLI runs.
    file_.spec.seed = o_.seed;
    if (o_.kmax.has_value()) file_.spec.with_paper_ks(*o_.kmax);
    if (o_.format.has_value()) file_.format = *o_.format;
    file_.threads = o_.threads;
    std::vector<double> compile_ms;
    for (int i = 0; i < 9; ++i) {
      ScopedSpan span(tracer_, "exp.compile");
      plan_ = ucr::exp::compile(file_.spec, ucr::default_catalogue());
      compile_ms.push_back(span.close() * 1e3);
    }
    metrics_["exp.spec_load_ms"] = median(load_ms);
    metrics_["exp.compile_ms"] = median(compile_ms);
    // The canonical text every served and fleet request submits.
    ucr::exp::SpecFile served = file_;
    served.format = ucr::exp::OutputFormat::kJsonl;
    served_text_ = ucr::exp::to_text(served);
    served_spec_path_ = o_.tmp + "/workload.spec";
    std::ofstream(served_spec_path_) << served_text_;
  }

  // --- exp::run with timing sink and store; cache hits and misses -------
  void sweep_layers() {
    cache_root_ = o_.tmp + "/cache";
    std::vector<double> walls;
    double sink_seconds = 0.0;
    std::uint64_t sink_rows = 0;
    for (std::uint64_t rep = 0; rep < o_.reps; ++rep) {
      // Every rep is cold: the last one fills the cache the warm run, the
      // daemon and the fleet replay.
      const std::string root = rep + 1 == o_.reps
                                   ? cache_root_
                                   : o_.tmp + "/cache-rep" + std::to_string(rep);
      ucr::svc::ResultCache cache(root);
      std::ostringstream out;
      ucr::exp::CsvStreamSink csv(out);
      ucr::exp::JsonlSink jsonl(out);
      ucr::exp::ResultSink& real =
          file_.format == ucr::exp::OutputFormat::kCsv
              ? static_cast<ucr::exp::ResultSink&>(csv)
              : jsonl;
      ScopedSpan span(tracer_, "exp.run");
      TimingSink sink(real, tracer_, span.id());
      TimingStore store(cache, tracer_, span.id());
      ucr::exp::RunOptions options;
      options.threads = o_.threads;
      options.cache = &store;
      ucr::exp::run(plan_, {&sink}, options);
      walls.push_back(span.close());
      sink_seconds += sink.seconds;
      sink_rows += sink.rows;
      misses_ = store.misses;  // one cold run's misses
      store_seconds_ += store.store_seconds;
      stores_ += store.stores;
      rows_ = out.str();
    }
    traced_wall_ = median(walls);
    metrics_["exp.sink_us_per_row"] =
        sink_seconds * 1e6 / static_cast<double>(std::max<std::uint64_t>(sink_rows, 1));
    metrics_["exp.sink_bytes"] = static_cast<double>(rows_.size());
    std::ofstream(o_.rows_out) << rows_;

    // Warm: every cell replays from the cache just filled.
    ucr::svc::ResultCache cache(cache_root_);
    std::ostringstream warm;
    ucr::exp::JsonlSink jsonl(warm);
    ScopedSpan span(tracer_, "exp.run.warm");
    TimingStore store(cache, tracer_, span.id());
    ucr::exp::RunOptions options;
    options.threads = o_.threads;
    options.cache = &store;
    ucr::exp::run(plan_, {&jsonl}, options);
    span.close();
    warm_jsonl_ = warm.str();
    if (file_.format == ucr::exp::OutputFormat::kJsonl && warm_jsonl_ != rows_) {
      error("warm cache replay rows differ from the cold run");
    }
    if (store.hits != plan_.cells.size() || store.misses != 0) {
      error("warm run: " + std::to_string(store.hits) + " hits, " +
            std::to_string(store.misses) + " misses for " +
            std::to_string(plan_.cells.size()) + " cells");
    }
    metrics_["cache.hits"] = static_cast<double>(store.hits);
    metrics_["cache.misses"] = static_cast<double>(misses_);
    metrics_["cache.load_us"] =
        store.hits > 0 ? store.hit_seconds * 1e6 / static_cast<double>(store.hits) : 0;
    metrics_["cache.store_us"] =
        stores_ > 0 ? store_seconds_ * 1e6 / static_cast<double>(stores_) : 0;
  }

  // --- sim: per-cell execute, replayed runs, aggregate_runs --------------
  void cell_layers() {
    const std::vector<ucr::exp::CellTask> tasks =
        ucr::exp::enumerate_cell_tasks(plan_);
    double execute_sum = 0.0;
    double execute_max = 0.0;
    double aggregate_seconds = 0.0;
    for (const ucr::exp::CellTask& task : tasks) {
      ScopedSpan cell_span(tracer_, "cell");
      ScopedSpan exec_span(tracer_, "cell.execute", cell_span.id());
      const ucr::exp::CellResult reference = task.execute();
      const double exec_s = exec_span.close();
      execute_sum += exec_s;
      execute_max = std::max(execute_max, exec_s);

      const ucr::SweepPoint& point = task.point;
      const ucr::exp::EngineMode engine = task.cell.engine;
      const bool node = task.cell.node_engine();
      const bool one_fail = task.cell.protocol == "One-Fail Adaptive" &&
                            task.cell.k == 1000000 && !node;
      std::vector<ucr::RunMetrics> replayed;
      for (std::uint64_t r = 0; r < point.runs; ++r) {
        ucr::ArrivalPattern arrivals;
        if (node) {
          ScopedSpan span(tracer_, "sim.arrivals", cell_span.id());
          arrivals = point.arrivals_per_run ? point.arrivals_per_run(r)
                                            : point.arrivals;
        }
        ucr::EngineOptions options = point.options;
        // Delivery slots give the exact engine's station-slot count; they
        // are recorded beside the run and never change its sample path.
        if (engine == ucr::exp::EngineMode::kNode) {
          options.record_deliveries = true;
        }
        ScopedSpan span(tracer_, std::string("engine.") +
                                     ucr::exp::engine_mode_name(engine),
                        cell_span.id());
        ucr::RunMetrics run =
            node ? ucr::run_single_node(point.factory, arrivals, r, point.seed,
                                        options)
                 : ucr::run_single_fair(point.factory, point.k, r, point.seed,
                                        options);
        const double seconds = span.close();
        if (engine == ucr::exp::EngineMode::kNode) {
          node_.seconds += seconds;
          node_.units += station_slots(arrivals, run);
          run.delivery_slots.clear();
        } else if (engine == ucr::exp::EngineMode::kNodeBatched) {
          node_batched_.seconds += seconds;
          node_batched_.units += static_cast<double>(run.slots);
        } else {
          fair_.seconds += seconds;
          fair_.units += static_cast<double>(run.slots);
          if (one_fail) {
            one_fail_.seconds += seconds;
            one_fail_.units += static_cast<double>(run.slots);
          }
        }
        total_slots_ += run.slots;
        if (!run.completed) ++capped_runs_;
        if (r >= reference.aggregate.details.size() ||
            !same_run(run, reference.aggregate.details[r])) {
          error("replayed run " + std::to_string(r) + " of cell " +
                std::to_string(task.cell.index) +
                " differs from CellTask::execute");
        }
        replayed.push_back(std::move(run));
      }
      ScopedSpan agg_span(tracer_, "runner.aggregate", cell_span.id());
      const ucr::AggregateResult aggregate = ucr::aggregate_runs(
          point.factory.name, point.cell_k(), std::move(replayed));
      aggregate_seconds += agg_span.close();
      if (render_row(plan_, task.cell, aggregate) !=
          render_row(plan_, reference.cell, reference.aggregate)) {
        error("aggregate of the replayed runs of cell " +
              std::to_string(task.cell.index) + " differs");
      }
    }
    metrics_["runner.aggregate_ms"] = aggregate_seconds * 1e3;
    metrics_["pool.critical_cell_s"] = execute_max;
    metrics_["pool.efficiency"] =
        execute_sum / (static_cast<double>(o_.threads) * traced_wall_);
    metrics_["engine.slots"] = static_cast<double>(total_slots_);
    metrics_["engine.capped_runs"] = static_cast<double>(capped_runs_);
  }

  /// A workload that never calls an engine still reports its per-slot
  /// cost, measured on a fixed probe cell (perfbench/README.md lists
  /// them), so every per-layer metric is measured on every workload.
  void probe_missing_engines() {
    const auto catalogue = ucr::default_catalogue();
    const auto& find = [&](const char* name) -> const ucr::ProtocolFactory& {
      return ucr::find_protocol(catalogue, name);
    };
    if (one_fail_.units == 0) {
      ucr::EngineOptions options;
      options.batched = true;
      ScopedSpan span(tracer_, "probe.engine.batched");
      const ucr::RunMetrics run = ucr::run_single_fair(
          find("One-Fail Adaptive"), 1000000, 0, o_.seed, options);
      one_fail_.seconds = span.close();
      one_fail_.units = static_cast<double>(run.slots);
    }
    if (fair_.units == 0) fair_ = one_fail_;
    if (node_.units == 0) {
      ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(o_.seed, 3);
      const ucr::ArrivalPattern arrivals = ucr::poisson_arrivals(200, 0.1, rng);
      ucr::EngineOptions options;
      options.record_latencies = true;
      options.record_deliveries = true;
      options.max_slots = 300000;
      for (std::uint64_t r = 0; r < 10; ++r) {
        ScopedSpan span(tracer_, "probe.engine.node");
        const ucr::RunMetrics run = ucr::run_single_node(
            find("Dynamic One-Fail Adaptive"), arrivals, r, o_.seed, options);
        node_.seconds += span.close();
        node_.units += station_slots(arrivals, run);
      }
    }
    if (node_batched_.units == 0) {
      ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(o_.seed, 4);
      const ucr::ArrivalPattern arrivals =
          ucr::poisson_arrivals(100000, 0.1, rng);
      ucr::EngineOptions options;
      options.batched = true;
      options.record_latencies = true;
      ScopedSpan span(tracer_, "probe.engine.node_batched");
      const ucr::RunMetrics run = ucr::run_single_node(
          find("Exp Back-on/Back-off"), arrivals, 0, o_.seed, options);
      node_batched_.seconds = span.close();
      node_batched_.units = static_cast<double>(run.slots);
    }
    metrics_["engine.fair_ns_per_slot"] = fair_.ns_per_unit();
    metrics_["engine.fair_ns_per_slot.one-fail"] = one_fail_.ns_per_unit();
    metrics_["engine.node_ns_per_station_slot"] = node_.ns_per_unit();
    metrics_["engine.node_batched_ns_per_slot"] = node_batched_.ns_per_unit();
  }

  // --- svc: ucr_servd over the warm cache, driven through svc::client ----
  void daemon_layers() {
    const std::string socket = o_.tmp + "/servd.sock";
    const pid_t pid = ucr::coord::spawn_process(
        {o_.servd, "--socket=" + socket, "--cache=" + cache_root_,
         "--threads=" + std::to_string(o_.threads)},
        o_.tmp + "/servd.out", o_.tmp + "/servd.err");
    try {
      wait_for_daemon(socket, pid);
      std::vector<double> ping_us;
      for (int i = 0; i < 50; ++i) {
        ScopedSpan span(tracer_, "daemon.ping");
        ucr::svc::request(socket, ucr::svc::simple_request("ping"));
        ping_us.push_back(span.close() * 1e6);
      }
      std::vector<double> submit_ms;
      std::vector<double> first_row_ms;
      for (int i = 0; i < 9; ++i) {
        ScopedSpan job_span(tracer_, "daemon.job");
        const Clock::time_point start = Clock::now();
        ScopedSpan submit_span(tracer_, "daemon.submit", job_span.id());
        const ucr::json::Value response = ucr::svc::request(
            socket, ucr::svc::submit_request(served_text_));
        submit_ms.push_back(submit_span.close() * 1e3);
        std::string rows;
        std::optional<double> first_row;
        ScopedSpan stream_span(tracer_, "daemon.stream", job_span.id());
        const ucr::svc::StreamResult result = ucr::svc::stream_job(
            socket, response.at("job").as_string(),
            [&](const std::string& row) {
              if (!first_row) first_row = seconds_between(start, Clock::now());
              rows += row + "\n";
            });
        stream_span.close();
        first_row_ms.push_back(first_row.value_or(0.0) * 1e3);
        if (rows != warm_jsonl_ || result.cache_hits != result.total) {
          error("daemon replay rows differ from the in-process rows");
        }
      }
      metrics_["daemon.ping_us"] = median(ping_us);
      metrics_["daemon.submit_ms"] = median(submit_ms);
      metrics_["daemon.first_row_ms"] = median(first_row_ms);
      ucr::svc::request(socket, ucr::svc::simple_request("shutdown"));
    } catch (const ucr::ContractViolation& e) {
      error(std::string("daemon: ") + e.what());
    }
    reap(pid);
  }

  void wait_for_daemon(const std::string& socket, pid_t pid) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (true) {
      try {
        ucr::svc::request(socket, ucr::svc::simple_request("ping"));
        return;
      } catch (const ucr::ContractViolation&) {
        UCR_REQUIRE(!ucr::coord::try_wait(pid).has_value(),
                    "ucr_servd exited during start-up");
        UCR_REQUIRE(Clock::now() < deadline, "ucr_servd did not start");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  /// Waits up to 20 s for a child to exit, then kills it.
  static void reap(pid_t pid) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (!ucr::coord::try_wait(pid).has_value()) {
      if (Clock::now() > deadline) {
        ucr::coord::kill_process(pid);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // --- coord: process spawn and fleet runs over warm worker caches ------
  void coord_layers() {
    std::vector<double> spawn_ms;
    for (int i = 0; i < 9; ++i) {
      ScopedSpan span(tracer_, "coord.spawn");
      const pid_t pid = ucr::coord::spawn_process(
          {o_.cli, "--spec=" + served_spec_path_, "--hash-spec"},
          o_.tmp + "/spawn.out", o_.tmp + "/spawn.err");
      std::optional<int> code;
      while (!(code = ucr::coord::try_wait(pid)).has_value()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      spawn_ms.push_back(span.close() * 1e3);
      if (*code != 0) error("ucr_cli --hash-spec exited " + std::to_string(*code));
    }
    metrics_["coord.spawn_ms"] = median(spawn_ms);

    std::vector<double> ms_per_shard;
    std::uint64_t retries = 0;
    for (int i = 0; i < 3; ++i) {
      ucr::coord::CoordinatorOptions options;
      options.spec_path = served_spec_path_;
      options.workers = ucr::coord::parse_workers("local\nlocal\n");
      options.cli = o_.cli;
      options.work_dir = o_.tmp + "/coord-" + std::to_string(i);
      options.worker_threads = 1;
      // Warm every worker's cache with the cells banked by the cold run.
      fs::create_directories(options.work_dir);
      for (const ucr::coord::WorkerSpec& worker : options.workers) {
        fs::copy(cache_root_, options.work_dir + "/cache-" + worker.name,
                 fs::copy_options::recursive);
      }
      try {
        ucr::coord::Coordinator coordinator(options);
        std::ostringstream out;
        ScopedSpan span(tracer_, "coord.run");
        const ucr::coord::CoordReport report = coordinator.run(out);
        ms_per_shard.push_back(span.close() * 1e3 /
                               static_cast<double>(report.shards));
        retries += report.retries;
        if (out.str() != warm_jsonl_) {
          error("fleet output differs from the in-process rows");
        }
      } catch (const ucr::ContractViolation& e) {
        error(std::string("coordinator: ") + e.what());
      }
    }
    metrics_["coord.ms_per_shard"] = ms_per_shard.empty() ? 0 : median(ms_per_shard);
    metrics_["coord.retries"] = static_cast<double>(retries);
  }

  void finish() {
    {
      std::ofstream spans(o_.spans_out);
      tracer_.write_jsonl(spans);
    }
    // Human-readable self-time profile, largest first.
    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, seconds] : tracer_.self_seconds()) {
      self.emplace_back(seconds, name);
    }
    std::sort(self.rbegin(), self.rend());
    std::cout << "self time by span (s):\n";
    for (const auto& [seconds, name] : self) {
      std::cout << "  " << name << " " << seconds << "\n";
    }
    std::cout.precision(17);
    std::cout << "{\"traced_wall_s\":" << traced_wall_
              << ",\"rows\":" << plan_.cells.size() << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      std::cout << (first ? "" : ",") << "\"" << name << "\":" << value;
      first = false;
    }
    std::cout << "},\"errors\":[";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      std::cout << (i ? "," : "") << "\""
                << ucr::exp::json_escape(errors_[i]) << "\"";
    }
    std::cout << "]}\n";
  }

  Options o_;
  Tracer tracer_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> errors_;
  ucr::exp::SpecFile file_;
  ucr::exp::ExperimentPlan plan_;
  std::string served_text_;
  std::string served_spec_path_;
  std::string cache_root_;
  std::string rows_;
  std::string warm_jsonl_;
  double traced_wall_ = 0.0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  double store_seconds_ = 0.0;
  EngineTally fair_;
  EngineTally one_fail_;
  EngineTally node_;
  EngineTally node_batched_;
  std::uint64_t total_slots_ = 0;
  std::uint64_t capped_runs_ = 0;
};

/// The Table 1 analysis ratios the static-batched correctness check bounds
/// the measured k = 10^6 ratios by, with e as the floor for any fair
/// protocol.
void print_bounds() {
  std::cout.precision(17);
  std::cout << "{\"e\":" << ucr::fair_optimal_ratio()
            << ",\"One-Fail Adaptive\":" << ucr::one_fail_ratio(2.72)
            << ",\"Exp Back-on/Back-off\":" << ucr::exp_backon_ratio(0.366)
            << ",\"Log-Fails Adaptive (2)\":"
            << ucr::log_fails_analysis_ratio(0.5)
            << ",\"Log-Fails Adaptive (10)\":"
            << ucr::log_fails_analysis_ratio(0.1) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "error: perfbench_trace must be a Release build (NDEBUG is "
               "not defined); timings of other builds are refused\n";
  return 2;
#endif
  try {
    const ucr::CliArgs args(
        argc, argv,
        {"print-bounds", "workload", "spec", "seed", "threads", "kmax",
         "format", "reps", "tmp", "cli", "servd", "rows-out", "spans-out"});
    if (args.get_bool("print-bounds", false)) {
      print_bounds();
      return 0;
    }
    Options options;
    const auto required = [&](const char* name) {
      const auto value = args.get(name);
      UCR_REQUIRE(value.has_value(), std::string("--") + name + " is required");
      return *value;
    };
    options.workload = required("workload");
    options.spec = required("spec");
    options.seed = args.get_u64("seed", 0);
    options.threads = static_cast<unsigned>(args.get_u64("threads", 2));
    if (args.get("kmax")) options.kmax = args.get_u64("kmax", 0);
    if (const auto format = args.get("format")) {
      UCR_REQUIRE(*format == "csv" || *format == "jsonl",
                  "--format must be csv or jsonl");
      options.format = *format == "csv" ? ucr::exp::OutputFormat::kCsv
                                        : ucr::exp::OutputFormat::kJsonl;
    }
    options.reps = std::max<std::uint64_t>(1, args.get_u64("reps", 1));
    options.tmp = required("tmp");
    options.cli = required("cli");
    options.servd = required("servd");
    options.rows_out = required("rows-out");
    options.spans_out = required("spans-out");
    return TraceRun(std::move(options)).run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
