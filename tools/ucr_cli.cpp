// ucr_cli — one command-line driver for the whole library. The canonical
// experiment description is the textual spec (src/exp/spec_io.hpp):
// --spec=FILE loads one, and every spec flag is the spec line it names
// (--ks=10,100 is `ks = 10,100`), applied over the file by the rules of
// an overlay's deltas (apply_spec_lines) — so explicit flags win over the
// file, fail the way the same line would, and a versioned spec plus a
// one-flag override (a different shard, a different format) is the
// normal cross-machine invocation. --dump-spec prints the canonical
// merged text instead of running, which is also how a flag invocation
// gets turned into a spec file in the first place; --submit sends that
// same merged text to the sweep daemon. Either way the CLI is just spec
// construction + the compile/run/sink pipeline, so a sweep typed here, a
// spec file, a daemon job, a bench harness and a sharded cross-machine
// run all execute the exact same code path.
//
// Examples:
//   ucr_cli --list
//   ucr_cli --spec=specs/fig1.spec
//   ucr_cli --spec=specs/fig1.spec --shard=2/4
//   ucr_cli --protocols=paper --kmax=100000 --format=csv --dump-spec
//   ucr_cli --protocol="One-Fail Adaptive" --k=100000 --runs=10
//   ucr_cli --protocols=paper --kmax=1000000 --shard=0/4 --format=csv
//   ucr_cli --protocol="LogLog-Iterated Back-off" --k=500
//           --arrivals=poisson --lambda=0.1 --runs=5 --format=jsonl
//   ucr_cli --protocol="Exp Back-on/Back-off" --k=100000
//           --arrivals=poisson --lambda=0.02 --engine=node_batched
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "svc/client.hpp"
#include "svc/result_cache.hpp"

namespace {

int list_protocols() {
  std::cout << "Available protocols:\n";
  for (const auto& p : ucr::default_catalogue()) {
    std::cout << "  " << p.name << "\n";
  }
  return 0;
}

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: ucr_cli --spec=FILE [overriding flags]\n"
         "       ucr_cli --protocol=<name> [options]\n"
         "       ucr_cli --protocols=<a,b|paper|all> [options]\n"
         "       ucr_cli --list\n\n"
         "spec file front end:\n"
         "  --spec=FILE       load a textual ExperimentSpec (the key=value\n"
         "                    format of src/exp/spec_io.hpp; the shipped\n"
         "                    sweeps live in specs/). Each flag below is\n"
         "                    the spec line it names, applied over the\n"
         "                    file as an overlay's lines are (flag wins;\n"
         "                    a bad value fails as that line would)\n"
         "  --dump-spec       print the canonical merged spec text and\n"
         "                    exit — turns any flag invocation into a\n"
         "                    versionable spec file\n"
         "  --hash-spec       print the merged spec's shard-invariant\n"
         "                    spec_hash (the provenance key stamped on\n"
         "                    every archived row) and exit\n"
         "spec axes (each flag is one line of the spec):\n"
         "  --protocol=NAME   one protocol (case-insensitive; typos get a\n"
         "                    did-you-mean hint — try --list)\n"
         "  --protocols=LIST  comma-separated names, or 'paper' (the five\n"
         "                    evaluated protocols) or 'all'; --protocol\n"
         "                    and --protocols are both the protocols line\n"
         "  --k=N             single batch size (default 1000)\n"
         "  --ks=LIST         comma-separated k grid (e.g. 10,100,1000);\n"
         "                    --k and --ks are both the ks line\n"
         "  --kmax=N          the paper's sweep: powers of ten up to N\n"
         "                    (displaces a file's ks; not with --k/--ks)\n"
         "  --runs=N          independent runs per cell (default 10)\n"
         "  --seed=N          base seed (default 2011)\n"
         "  --engine=fair|batched|node|node_batched\n"
         "                    aggregate engine (default), the batched fast\n"
         "                    paths (paper-scale k and long dynamic\n"
         "                    workloads; same law of outcomes, different\n"
         "                    RNG path; batched also accelerates non-batch\n"
         "                    cells via the batched per-station engine), or\n"
         "                    the exact/batched per-station engine\n"
         "  --arrivals=LIST   per-cell workloads, comma-separated (commas\n"
         "                    inside parentheses group arguments): bare\n"
         "                    batch|poisson|burst shaped by the flags\n"
         "                    below, or any spec-file arrival expression —\n"
         "                    poisson(<lambda>), burst(<bursts>,<gap>),\n"
         "                    schedule(<slot>,...), mmpp(<hi>,<lo>,<dwell>),\n"
         "                    pareto(<alpha>,<xm>) (docs/SCENARIOS.md;\n"
         "                    default batch; non-batch cells run\n"
         "                    per-station)\n"
         "  --lambda=X        Poisson arrival rate in msg/slot (default\n"
         "                    0.1; fresh pattern per run)\n"
         "  --bursts=N --gap=N  burst workload shape (default 4 bursts,\n"
         "                    gap 64)\n"
         "  --channel=LIST    per-cell channel models, comma-separated\n"
         "                    (parentheses group): clean, capture(<p>),\n"
         "                    jamming(<q>), jam_burst(<period>,<len>)\n"
         "                    (default clean; non-clean cells run on the\n"
         "                    exact node engine — docs/SCENARIOS.md)\n"
         "  --max-slots=N     slot cap (default: engine default)\n"
         "  --shard=i/N       run shard i of N (contiguous cell block of\n"
         "                    the flattened grid; concatenating the CSV or\n"
         "                    JSONL output of shards 0..N-1 is\n"
         "                    byte-identical to the unsharded sweep)\n"
         "execution / output:\n"
         "  --threads=N       sweep worker threads, N >= 1 (default: all\n"
         "                    cores; results are identical for every N)\n"
         "  --format=table|csv|jsonl   output format (default table)\n"
         "  --csv=1           alias for --format=csv\n"
         "cached / resumable execution (docs/SERVICE.md):\n"
         "  --cache=DIR       attach the on-disk result cache: cells\n"
         "                    already banked under the spec's provenance\n"
         "                    key replay byte-identically instead of\n"
         "                    recomputing, fresh cells are banked before\n"
         "                    they are emitted — kill + rerun = resume\n"
         "  --list-cells      print the compiled grid (cell index,\n"
         "                    protocol, k, arrivals, channel, engine)\n"
         "                    without running anything\n"
         "  --abort-after-cells=N  fault injection for resume testing:\n"
         "                    fail loudly once N cells have been emitted\n"
         "                    (env spelling UCR_ABORT_AFTER_CELLS=N; with\n"
         "                    UCR_ABORT_MODE=kill the process hard-exits\n"
         "                    137 instead of throwing — a worker machine\n"
         "                    dying mid-shard, for coordinator tests)\n"
         "daemon client (needs a running ucr_servd; docs/SERVICE.md):\n"
         "  --submit=FILE --socket=PATH [--wait] [spec flags]\n"
         "                    submit the merged spec (FILE with the spec\n"
         "                    flags applied, as --dump-spec prints it);\n"
         "                    --wait streams the job's JSONL rows to\n"
         "                    stdout (byte-identical to --spec=FILE\n"
         "                    --format=jsonl with the same flags) and\n"
         "                    prints a summary to stderr, otherwise the\n"
         "                    job id is printed and the job runs detached\n"
         "  --status=JOB --socket=PATH    print a job's progress\n"
         "  --cancel=JOB --socket=PATH    stop a job at its next cell\n"
         "  --json            with --status/--cancel: print the daemon's\n"
         "                    JSON response verbatim instead of the\n"
         "                    human summary (docs/SERVICE.md fields)\n"
         "  --shutdown --socket=PATH      stop the daemon\n";
  return 2;
}

/// Splits a comma-separated list whose items may carry parenthesized
/// argument lists — "batch,mmpp(0.5,0.01,100)" is two items, not four.
/// Only commas at parenthesis depth zero separate items; items are
/// trimmed, and an empty one is rejected, as in a spec-file list.
std::vector<std::string> split_expr_list(const std::string& text) {
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  const auto push = [&] {
    std::string item = ucr::trim(current);
    UCR_REQUIRE(!item.empty(), "empty item in list '" + text + "'");
    items.push_back(std::move(item));
    current.clear();
  };
  for (const char ch : text) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    UCR_REQUIRE(depth >= 0, "unbalanced ')' in list '" + text + "'");
    if (ch == ',' && depth == 0) {
      push();
    } else {
      current += ch;
    }
  }
  UCR_REQUIRE(depth == 0, "unbalanced '(' in list '" + text + "'");
  push();
  return items;
}

/// The spec a run starts from when no file is given: the ExperimentSpec
/// defaults and the classic single batch size k = 1000, which any k flag
/// displaces as an overlay line would.
constexpr const char* kDefaultSpec = "spec_version = 1\nks = 1000\n";

/// The spec lines the spec flags stand for, each named by its flag. A
/// flag's value is the line's value as written, except that
/// --protocols=paper and =all expand to names, a bare poisson or burst in
/// --arrivals takes --lambda or --bursts/--gap, and --k, --threads (or
/// UCR_THREADS) and --csv are checked as flags before they become lines.
std::vector<ucr::exp::SpecLine> flag_lines(
    const ucr::CliArgs& args,
    const std::vector<ucr::ProtocolFactory>& catalogue) {
  std::vector<ucr::exp::SpecLine> lines;
  const auto add = [&lines](const char* key, std::string value,
                            const char* flag) {
    lines.push_back({key, std::move(value), std::string("--") + flag});
  };
  static constexpr std::pair<const char*, const char*> kAsWritten[] = {
      {"protocol", "protocols"}, {"ks", "ks"},       {"kmax", "kmax"},
      {"runs", "runs"},          {"seed", "seed"},   {"engine", "engine"},
      {"max-slots", "max_slots"}, {"shard", "shard"}, {"format", "format"}};
  for (const auto& [flag, key] : kAsWritten) {
    if (const auto value = args.get(flag)) add(key, *value, flag);
  }
  if (auto names = args.get("protocols")) {
    if (*names == "paper" || *names == "all") {
      const auto named =
          *names == "paper" ? ucr::paper_protocols() : catalogue;
      names->clear();
      for (const auto& p : named) {
        *names += (names->empty() ? "" : ", ") + p.name;
      }
    }
    add("protocols", *names, "protocols");
  }
  if (args.get("k")) add("ks", std::to_string(args.get_u64("k", 0)), "k");

  if (const auto arrivals = args.get("arrivals")) {
    const double lambda = args.get_double("lambda", 0.1);
    const std::uint64_t bursts = args.get_u64("bursts", 4);
    const std::uint64_t gap = args.get_u64("gap", 64);
    for (std::string item : split_expr_list(*arrivals)) {
      if (item == "poisson") {
        item = "poisson(" + ucr::format_double_shortest(lambda) + ")";
      } else if (item == "burst") {
        item = "burst(" + std::to_string(bursts) + "," +
               std::to_string(gap) + ")";
      }
      add("arrival", std::move(item), "arrivals");
    }
  } else if (args.get("lambda") || args.get("bursts") || args.get("gap")) {
    // A file carries each cell's parameters inline: fail loudly rather
    // than let a user believe they re-parameterized the file's cells.
    throw ucr::ContractViolation(
        "--lambda/--bursts/--gap only shape cells built by --arrivals; to "
        "override a spec file's arrival cells, restate the list (e.g. "
        "--arrivals=poisson --lambda=0.9)");
  }
  if (const auto channels = args.get("channel")) {
    for (std::string item : split_expr_list(*channels)) {
      add("channel", std::move(item), "channel");
    }
  }
  if (const unsigned threads = ucr::thread_count_option(args, "UCR_THREADS")) {
    add("threads", std::to_string(threads), "threads");
  }
  if (args.get_bool("csv", false)) add("format", "csv", "csv");
  return lines;
}

/// The spec a run, --dump-spec or --submit acts on: the file at `path`
/// (or kDefaultSpec) with the flag lines applied over it.
ucr::exp::SpecFile merged_spec(
    const ucr::CliArgs& args, const std::optional<std::string>& path,
    const std::vector<ucr::ProtocolFactory>& catalogue) {
  ucr::exp::SpecFile file = path.has_value()
                                ? ucr::exp::load_spec_file(*path)
                                : ucr::exp::parse_spec(kDefaultSpec);
  ucr::exp::apply_spec_lines(file, flag_lines(args, catalogue));
  return file;
}

/// "job job-2 done: 12/12 cells, 12 cache hits (100%)" — the CI service
/// smoke greps the percentage, so keep the shape stable.
std::string job_summary(const std::string& id, const std::string& state,
                        std::uint64_t completed, std::uint64_t total,
                        std::uint64_t cache_hits) {
  std::string line = "job " + id + " " + state + ": " +
                     std::to_string(completed) + "/" + std::to_string(total) +
                     " cells, " + std::to_string(cache_hits) + " cache hits";
  if (total > 0) {
    line += " (" + std::to_string(cache_hits * 100 / total) + "%)";
  }
  return line;
}

/// The summary line of a status/cancel response.
std::string job_summary(const ucr::json::Value& response) {
  return job_summary(response.at("job").as_string(),
                     response.at("state").as_string(),
                     response.at("completed").as_u64(),
                     response.at("total").as_u64(),
                     response.at("cache_hits").as_u64());
}

/// Daemon client modes (--submit / --status / --cancel / --shutdown),
/// all addressed by --socket.
int run_client(const ucr::CliArgs& args) {
  const auto socket_path = args.get("socket");
  if (!socket_path.has_value()) {
    return usage("daemon client modes need --socket=PATH");
  }

  if (args.get_bool("shutdown", false)) {
    ucr::svc::request(*socket_path, ucr::svc::simple_request("shutdown"));
    std::cerr << "ucr_cli: daemon at " << *socket_path
              << " shutting down\n";
    return 0;
  }
  // --json prints the daemon's response line verbatim (machine-readable;
  // the field names are pinned by tests and docs/SERVICE.md).
  const bool raw_json = args.get_bool("json", false);
  if (const auto job = args.get("status")) {
    const std::string line = ucr::svc::job_request("status", *job);
    if (raw_json) {
      std::cout << ucr::svc::request_raw(*socket_path, line) << "\n";
    } else {
      std::cout << job_summary(ucr::svc::request(*socket_path, line)) << "\n";
    }
    return 0;
  }
  if (const auto job = args.get("cancel")) {
    const std::string line = ucr::svc::job_request("cancel", *job);
    if (raw_json) {
      std::cout << ucr::svc::request_raw(*socket_path, line) << "\n";
    } else {
      std::cout << job_summary(ucr::svc::request(*socket_path, line)) << "\n";
    }
    return 0;
  }

  // --submit sends the merged spec as canonical text: the job is the
  // sweep `--spec=FILE` with the same flags runs, overlays included.
  const auto spec_file = args.get("submit");
  UCR_CHECK(spec_file.has_value(), "run_client dispatched without a mode");
  const std::string text = ucr::exp::to_text(
      merged_spec(args, spec_file, ucr::default_catalogue()));
  const auto response =
      ucr::svc::request(*socket_path, ucr::svc::submit_request(text));
  const std::string id = response.at("job").as_string();
  if (!args.get_bool("wait", false)) {
    std::cerr << "ucr_cli: submitted " << id << " ("
              << response.at("total").number_token() << " cells, spec_hash "
              << response.at("spec_hash").as_string() << ")\n";
    std::cout << id << "\n";
    return 0;
  }
  // --wait: only result rows on stdout, so the streamed output can be
  // byte-compared against a direct `--spec=FILE --format=jsonl` run.
  const ucr::svc::StreamResult result = ucr::svc::stream_job(
      *socket_path, id,
      [](const std::string& row) { std::cout << row << "\n"; });
  std::cerr << "ucr_cli: "
            << job_summary(id, result.state, result.completed, result.total,
                           result.cache_hits);
  if (!result.error.empty()) std::cerr << " — " << result.error;
  std::cerr << "\n";
  return result.state == "done" ? 0 : 1;
}

/// Fault-injection sink for resume and retry tests: placed ahead of the
/// output sinks, it fails when the (N+1)th cell is emitted, so exactly N
/// rows reach the output while cell N itself is already banked in the
/// cache (run() stores before emitting). Two failure modes: `throw`
/// (default) fails loudly through the normal error path; `kill`
/// hard-exits with status 137 — the status a SIGKILLed process reports —
/// without unwinding, which is how the coordinator tests simulate a
/// worker machine dying mid-shard (docs/SERVICE.md).
class AbortSink final : public ucr::exp::ResultSink {
 public:
  AbortSink(std::uint64_t limit, bool kill) : limit_(limit), kill_(kill) {}
  void emit(const ucr::exp::CellInfo&,
            const ucr::AggregateResult&) override {
    if (emitted_ >= limit_ && kill_) {
      std::cout.flush();  // emitted rows are real output; the death is not
      std::_Exit(137);
    }
    UCR_REQUIRE(emitted_ < limit_,
                "aborting after " + std::to_string(limit_) +
                    " cells (--abort-after-cells fault injection)");
    ++emitted_;
  }

 private:
  std::uint64_t limit_;
  bool kill_;
  std::uint64_t emitted_ = 0;
};

/// The abort-injection configuration: the --abort-after-cells flag, or —
/// so a coordinator worker can be made to die mid-shard without any
/// change to the argv the coordinator builds — the UCR_ABORT_AFTER_CELLS
/// environment variable. UCR_ABORT_MODE selects `throw` (default) or
/// `kill` (see AbortSink).
std::optional<AbortSink> make_abort_sink(const ucr::CliArgs& args) {
  std::optional<std::uint64_t> limit;
  if (args.get("abort-after-cells")) {
    limit = args.get_u64("abort-after-cells", 0);
  } else if (const char* env = std::getenv("UCR_ABORT_AFTER_CELLS");
             env != nullptr && *env != '\0') {
    limit = ucr::parse_u64_strict(env, "UCR_ABORT_AFTER_CELLS");
  }
  if (!limit.has_value()) return std::nullopt;
  bool kill = false;
  if (const char* mode = std::getenv("UCR_ABORT_MODE");
      mode != nullptr && *mode != '\0') {
    const std::string value = mode;
    UCR_REQUIRE(value == "throw" || value == "kill",
                "unknown UCR_ABORT_MODE '" + value + "' (throw, kill)");
    kill = value == "kill";
  }
  return AbortSink(*limit, kill);
}

int run_spec(const ucr::CliArgs& args) {
  const auto protocols = ucr::default_catalogue();
  const ucr::exp::SpecFile file =
      merged_spec(args, args.get("spec"), protocols);
  const ucr::exp::ExperimentSpec& spec = file.spec;

  // The merged description is now final; --dump-spec prints its canonical
  // text (re-loadable with --spec) instead of running it.
  if (args.get_bool("dump-spec", false)) {
    std::cout << ucr::exp::to_text(file);
    return 0;
  }
  if (args.get_bool("hash-spec", false)) {
    std::cout << ucr::exp::spec_hash(spec) << "\n";
    return 0;
  }

  if (spec.protocol_names.empty() && spec.protocols.empty()) {
    return usage("--protocol, --protocols or a --spec file naming "
                 "protocols is required (try --list)");
  }

  const auto plan = ucr::exp::compile(spec, protocols);

  // --list-cells: the flattened grid this plan would run (this shard's
  // cells, full-grid indices), straight from the compiled plan — the
  // address book for cache records and daemon job progress.
  if (args.get_bool("list-cells", false)) {
    std::cout << "spec_hash = " << plan.spec_hash << "\n";
    std::cout << plan.cells.size() << " cells";
    if (!plan.shard.is_whole()) {
      std::cout << " (shard " << plan.shard.label() << " of "
                << plan.total_cells << " total)";
    }
    std::cout << ":\n\n";
    ucr::Table table(
        {"cell", "protocol", "k", "arrivals", "channel", "engine"});
    for (const auto& cell : plan.cells) {
      table.add_row({std::to_string(cell.index), cell.protocol,
                     std::to_string(cell.k), cell.arrival.label(),
                     cell.channel.label(),
                     ucr::exp::engine_mode_name(cell.engine)});
    }
    table.print(std::cout);
    return 0;
  }

  ucr::exp::RunOptions run_options;
  run_options.threads = file.threads;
  std::unique_ptr<ucr::svc::ResultCache> cache;
  if (const auto cache_dir = args.get("cache")) {
    cache = std::make_unique<ucr::svc::ResultCache>(*cache_dir);
    run_options.cache = cache.get();
  }
  std::optional<AbortSink> abort_sink = make_abort_sink(args);

  // Streaming formats go straight to the sink — constant memory, rows
  // appear as the grid prefix completes.
  if (file.format != ucr::exp::OutputFormat::kTable) {
    ucr::exp::CsvStreamSink csv(std::cout);
    ucr::exp::JsonlSink jsonl(std::cout);
    ucr::exp::ResultSink* sink =
        file.format == ucr::exp::OutputFormat::kCsv
            ? static_cast<ucr::exp::ResultSink*>(&csv)
            : &jsonl;
    std::uint64_t incomplete = 0;
    class CountingSink final : public ucr::exp::ResultSink {
     public:
      explicit CountingSink(std::uint64_t& total) : total_(&total) {}
      void emit(const ucr::exp::CellInfo&,
                const ucr::AggregateResult& result) override {
        *total_ += result.incomplete_runs;
      }

     private:
      std::uint64_t* total_;
    } counting(incomplete);
    std::vector<ucr::exp::ResultSink*> sinks;
    if (abort_sink.has_value()) sinks.push_back(&*abort_sink);
    sinks.push_back(sink);
    sinks.push_back(&counting);
    ucr::exp::run(plan, sinks, run_options);
    return incomplete == 0 ? 0 : 1;
  }

  ucr::exp::MemorySink memory;
  std::vector<ucr::exp::ResultSink*> sinks;
  if (abort_sink.has_value()) sinks.push_back(&*abort_sink);
  sinks.push_back(&memory);
  ucr::exp::run(plan, sinks, run_options);
  const auto& results = memory.results();
  const auto& cells = memory.cells();

  std::uint64_t incomplete = 0;
  for (const auto& result : results) incomplete += result.incomplete_runs;

  if (results.size() == 1) {
    // Single cell: the familiar one-experiment report.
    const auto& result = results.front();
    const auto& cell = cells.front();
    std::cout << result.protocol << " on k = " << result.k << " ("
              << spec.runs << " runs, seed " << spec.seed << ", "
              << ucr::exp::engine_mode_name(cell.engine) << " engine, "
              << cell.arrival.label() << " arrivals, "
              << cell.channel.label() << " channel";
    if (!plan.shard.is_whole()) std::cout << ", shard " << plan.shard.label();
    std::cout << ")\n\n";
    ucr::Table table({"metric", "value"});
    table.add_row(
        {"mean makespan", ucr::format_double(result.makespan.mean, 1)});
    table.add_row({"95% CI halfwidth",
                   ucr::format_double(result.makespan.ci95_halfwidth, 1)});
    table.add_row({"min / max",
                   ucr::format_double(result.makespan.min, 0) + " / " +
                       ucr::format_double(result.makespan.max, 0)});
    table.add_row(
        {"mean ratio steps/k", ucr::format_double(result.ratio.mean, 3)});
    table.add_row({"incomplete runs", std::to_string(result.incomplete_runs)});
    table.print(std::cout);
    return incomplete == 0 ? 0 : 1;
  }

  // Grid: one row per cell, in grid order.
  std::cout << "Sweep of " << plan.total_cells << " cells";
  if (!plan.shard.is_whole()) {
    std::cout << " (this shard " << plan.shard.label() << ": "
              << results.size() << " cells)";
  }
  std::cout << ", " << spec.runs << " runs per cell, seed " << spec.seed
            << "\n\n";
  ucr::Table table({"protocol", "k", "arrivals", "channel", "engine",
                    "mean makespan", "ci95", "ratio", "incomplete"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row({result.protocol, std::to_string(result.k),
                   cells[i].arrival.label(), cells[i].channel.label(),
                   ucr::exp::engine_mode_name(cells[i].engine),
                   ucr::format_double(result.makespan.mean, 1),
                   ucr::format_double(result.makespan.ci95_halfwidth, 1),
                   ucr::format_double(result.ratio.mean, 3),
                   std::to_string(result.incomplete_runs)});
  }
  table.print(std::cout);
  return incomplete == 0 ? 0 : 1;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const ucr::CliArgs args(argc, argv,
                          {"spec", "dump-spec", "hash-spec", "protocol",
                           "protocols", "k",
                           "ks", "kmax", "runs", "seed", "engine", "arrivals",
                           "lambda", "bursts", "gap", "channel", "max-slots",
                           "shard", "threads", "csv", "format", "list",
                           "list-cells", "cache", "abort-after-cells",
                           "socket", "submit", "wait", "status", "cancel",
                           "shutdown", "json"});
  if (args.get_bool("list", false)) return list_protocols();
  if (args.get("submit") || args.get("status") || args.get("cancel") ||
      args.get_bool("shutdown", false)) {
    return run_client(args);
  }
  return run_spec(args);
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const ucr::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
