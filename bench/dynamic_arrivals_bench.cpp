// Dynamic-arrival study (the paper's Section 6 future work): sweeps the
// Poisson arrival rate lambda and reports makespan and delivery latency of
// the paper's protocols under non-batched arrivals, plus an adversarial
// burst pattern. Uses the per-node engine: with staggered arrivals station
// states genuinely diverge and the fair aggregate engine does not apply.
//
// The whole study is ONE ExperimentSpec: heterogeneous per-run workloads
// are first-class sweep cells (a Poisson ArrivalSpec re-samples the
// pattern for every run from its reserved substream), so the harness
// shares the parallel exp::run pipeline with every other driver
// instead of driving the ThreadPool by hand, and per-message latencies
// ride along in the aggregates via EngineOptions::record_latencies.
#include <cstdint>
#include <iostream>

#include "harness_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"

namespace {

/// Per-cell latency digest over the cell's pooled latencies, in sorted
/// order, so deterministic for any thread count. The percentiles
/// themselves ride along in the aggregate (latency_p50/p95/p99, also
/// persisted per CSV/JSONL row); mean and the Jain fairness index are the
/// extras this harness derives from the pool.
struct LatencyDigest {
  double mean = 0.0;
  double fairness = 0.0;  // Jain index over per-message latencies
};

LatencyDigest digest_latencies(const ucr::AggregateResult& result) {
  const std::vector<double> latencies = result.latencies.sorted_sample();
  LatencyDigest out;
  out.mean = ucr::summarize(latencies).mean;
  if (!latencies.empty()) {
    out.fairness = ucr::jain_fairness_index(latencies);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 200);
  const std::uint64_t k = cfg.k_max;  // per-node engine: keep k moderate

  std::cout << "=== Dynamic arrivals (k = " << k << ", " << cfg.runs
            << " runs per cell, per-node engine) ===\n\n";

  const std::vector<double> lambdas{0.02, 0.1, 0.5};

  // Staggered arrivals run per-station; --batched selects the batched
  // node engine (bulk-skipped silent stretches — the paper-scale knob for
  // low-lambda sweeps, where most slots are empty).
  auto spec = cfg.spec().with_ks({k});
  spec.engine = cfg.batched ? ucr::exp::EngineMode::kNodeBatched
                            : ucr::exp::EngineMode::kNode;
  // Finite cap: a protocol may livelock under sustained arrivals (One-
  // Fail Adaptive does at high lambda — see EXPERIMENTS.md); such runs
  // are reported through the `incomplete` column, not waited out.
  spec.engine_options.max_slots = 300000;
  spec.engine_options.record_latencies = true;
  for (const double lambda : lambdas) {
    spec.with_arrival(ucr::exp::ArrivalSpec::poisson(lambda));
  }
  spec.with_arrival(ucr::exp::ArrivalSpec::burst(4, 64));
  for (const auto& factory : ucr::paper_protocols()) {
    spec.with_factory(factory);
  }
  // This repo's future-work variant (see
  // docs/PROTOCOLS.md "Dynamic One-Fail Adaptive").
  spec.with_factory(ucr::make_dynamic_one_fail_factory());
  const std::size_t protocol_count = spec.protocols.size();
  const std::size_t arrival_count = spec.arrivals.size();

  const auto results = ucr::bench::run_spec(cfg, spec);

  // Cells are protocol-major: cell (p, a) = p * arrival_count + a. Render
  // one table per arrival workload, protocols as rows.
  for (std::size_t a = 0; a < arrival_count; ++a) {
    if (a < lambdas.size()) {
      std::cout << "Poisson arrivals, lambda = " << lambdas[a]
                << " msg/slot\n";
    } else {
      std::cout << "Adversarial bursts: 4 bursts of " << k / 4
                << " messages, gap 64 slots\n";
    }
    ucr::Table table(
        {"protocol", "mean makespan", "mean latency", "p50 latency",
         "p95 latency", "p99 latency", "fairness", "incomplete"});
    for (std::size_t p = 0; p < protocol_count; ++p) {
      const auto& res = results[p * arrival_count + a];
      const LatencyDigest lat = digest_latencies(res);
      table.add_row({res.protocol, ucr::format_count(res.makespan.mean),
                     ucr::format_double(lat.mean, 1),
                     ucr::format_double(res.latency_p50, 1),
                     ucr::format_double(res.latency_p95, 1),
                     ucr::format_double(res.latency_p99, 1),
                     ucr::format_double(lat.fairness, 3),
                     std::to_string(res.incomplete_runs)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
