// Dynamic k-selection — the future-work setting of Section 6 of the paper:
// messages arrive at different times (statistical arrivals), not in a batch.
//
//   $ ./dynamic_arrivals [--k=200] [--lambda=0.05] [--runs=10] [--seed=3]
//
// Uses the per-node engine (stations activated at different slots hold
// genuinely different protocol states, so the fair aggregate engine does
// not apply) and reports per-message delivery latency. The whole study is
// one ExperimentSpec: a Poisson ArrivalSpec makes every run of a cell a
// fresh draw of the arrival process, and record_latencies carries the
// per-message latencies back in each aggregate's latency pool. The
// non-monotonic strategies the paper proposes for batched arrivals remain
// well-behaved under Poisson arrivals — the observation that motivates the
// paper's closing conjecture.
#include <cstdint>
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"

int main(int argc, char** argv) {
  const ucr::CliArgs args(argc, argv, {"k", "lambda", "runs", "seed"});
  const std::uint64_t k = args.get_u64("k", 200);
  const double lambda = args.get_double("lambda", 0.05);

  ucr::exp::ExperimentSpec spec;
  spec.runs = args.get_u64("runs", 10);
  spec.seed = args.get_u64("seed", 3);
  spec.engine = ucr::exp::EngineMode::kNode;
  spec.with_ks({k}).with_arrival(ucr::exp::ArrivalSpec::poisson(lambda));
  // Finite cap: protocols designed for batched arrivals may livelock
  // under sustained arrivals (see EXPERIMENTS.md on One-Fail Adaptive);
  // capped runs show up in the `incomplete` column.
  spec.engine_options.max_slots = 300000;
  spec.engine_options.record_latencies = true;
  for (const auto& factory : ucr::all_protocols()) {
    if (factory.node) spec.with_factory(factory);
  }

  std::cout << "Dynamic k-selection: " << k << " messages, Poisson arrivals "
            << "at rate " << lambda << " msg/slot, " << spec.runs
            << " runs\n\n";

  const auto results = ucr::exp::run_collect(ucr::exp::compile(spec));

  ucr::Table table({"protocol", "mean makespan", "mean latency",
                    "p95 latency", "incomplete"});
  for (const auto& result : results) {
    const ucr::Summary lat = ucr::summarize(result.latencies.sorted_sample());
    table.add_row({result.protocol, ucr::format_count(result.makespan.mean),
                   ucr::format_double(lat.mean, 1),
                   ucr::format_double(lat.p95, 1),
                   std::to_string(result.incomplete_runs)});
  }
  table.print(std::cout);
  std::cout << "\nLatency = slots from a message's arrival to its delivery."
            << "\n";
  return 0;
}
