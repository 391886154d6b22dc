// Shared plumbing of the reproduction harnesses (bench/ executables).
//
// Every harness accepts the same five settings:
//   --kmax=N     largest k of the sweep   (default varies)
//   --runs=N     runs per (protocol, k)   (default 10, as in the paper)
//   --seed=N     base seed                (default 2011)
//   --threads=N  sweep worker threads, or UCR_THREADS (default: all
//                hardware threads; N >= 1, junk and 0 are rejected)
//   --batched=1  run every cell through the batched engine fast paths —
//                fair cells via sim/fair_engine.hpp, non-batch (dynamic
//                arrival) cells via the batched per-node engine
//                (sim/node_engine.hpp) — same law of outcomes as the
//                exact engines but a different RNG path, so per-run
//                numbers differ; means/quantiles agree
//
// Harnesses describe their grid as an ExperimentSpec (exp/spec.hpp) and
// execute it with run_spec() below — the same spec -> plan -> sink
// pipeline ucr_cli drives — so there are no per-harness grid loops. A
// harness renders its own paper table; spec files, shards, channel
// overrides and CSV/JSONL archives of a sweep are ucr_cli's (--spec,
// --shard, --channel, --format).
//
// Results are bit-identical for every thread count (see sim/sweep.hpp), so
// --threads is purely a wall-clock knob; --batched is the paper-scale
// wall-clock knob (--kmax=10000000 sweeps).
//
// Defaults are sized so that `for b in build/bench/*` finishes in minutes
// on one core; EXPERIMENTS.md records the paper-scale invocations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cli.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/spec.hpp"
#include "sim/runner.hpp"

namespace ucr::bench {

struct HarnessConfig {
  std::uint64_t k_max;
  std::uint64_t runs;
  std::uint64_t seed;
  unsigned threads;
  bool batched;

  /// Spec pre-filled with this harness invocation's runs / seed / engine
  /// mode; the harness adds its protocol, k and arrival axes.
  exp::ExperimentSpec spec() const {
    exp::ExperimentSpec spec;
    spec.runs = runs;
    spec.seed = seed;
    spec.engine =
        batched ? exp::EngineMode::kBatched : exp::EngineMode::kFair;
    return spec;
  }
};

inline HarnessConfig parse_harness_config(int argc, const char* const* argv,
                                          std::uint64_t default_kmax) {
  const CliArgs cli(argc, argv, {"kmax", "runs", "seed", "threads", "batched"});
  HarnessConfig cfg;
  cfg.k_max = cli.get_u64("kmax", default_kmax);
  cfg.runs = cli.get_u64("runs", 10);
  cfg.seed = cli.get_u64("seed", 2011);
  cfg.threads = thread_count_option(cli, "UCR_THREADS");
  cfg.batched = cli.get_bool("batched", false);
  return cfg;
}

/// Compiles and runs a harness's spec on cfg.threads workers. The
/// aggregates come back in grid order, so a pivot table indexes them by
/// grid position (protocol-major: cell (p, j) is results[p * cols + j]).
inline std::vector<AggregateResult> run_spec(const HarnessConfig& cfg,
                                             const exp::ExperimentSpec& spec) {
  return exp::run_collect(exp::compile(spec), {cfg.threads});
}

}  // namespace ucr::bench
