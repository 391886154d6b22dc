// Estimator dynamics — the mechanism behind both adaptive protocols, made
// visible with the SlotObserver hook: the AT transmission probability is
// 1/kappa~, so the observer's per-slot (active m, probability p) pairs give
// the estimator trajectory kappa~ = 1/p against the true density m.
//
// Shows (a) One-Fail Adaptive's +1-per-step climb locking onto kappa and
// tracking it down at a fixed distance, and (b) Log-Fails Adaptive's slow
// multiplicative SEARCH phase followed by the batched TRACK phase (see
// docs/PROTOCOLS.md "Log-Fails Adaptive (2)") — the two regimes that
// explain Figure 1's curves.
#include <iostream>

#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/log_fails_adaptive.hpp"
#include "sim/observer.hpp"

namespace {

// Prints checkpoints of kappa~/kappa along one run of a slot protocol,
// executed as a single-cell, single-run ExperimentSpec with the observer
// attached (the only spec shape a shared per-slot observer is valid for).
void trace(const char* name, const ucr::bench::HarnessConfig& cfg,
           ucr::ProtocolFactory factory, std::uint64_t k,
           bool at_steps_are_odd) {
  ucr::DownsampledSeries series(1);
  auto spec = cfg.spec().with_ks({k});
  spec.runs = 1;
  spec.engine = ucr::exp::EngineMode::kFair;  // observers need exact slots
  spec.engine_options.observer = &series;
  spec.with_factory(std::move(factory));
  const auto results = ucr::bench::run_spec(cfg, spec);
  const ucr::RunMetrics& metrics = results.front().details.front();

  std::cout << name << " (k = " << k << ", makespan " << metrics.slots
            << ", ratio " << ucr::format_double(metrics.ratio(), 2) << ")\n";
  ucr::Table table({"slot", "kappa (true)", "kappa~ (1/p on AT)",
                    "kappa~/kappa"});
  const auto& s = series.series();
  // 12 log-spaced checkpoints, AT slots only.
  std::uint64_t next = 1;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const bool at_step = at_steps_are_odd ? (s[i].slot % 2 == 0)  // 0-based
                                          : true;
    if (s[i].slot + 1 < next || !at_step) continue;
    next = next * 2;
    const double kappa_tilde = 1.0 / s[i].probability;
    table.add_row(
        {std::to_string(s[i].slot + 1), std::to_string(s[i].active),
         ucr::format_double(kappa_tilde, 1),
         ucr::format_double(kappa_tilde / static_cast<double>(s[i].active),
                            3)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 100000);
  const std::uint64_t k = cfg.k_max;

  std::cout << "=== Density-estimator trajectories (observer hook) ===\n\n";

  trace("One-Fail Adaptive", cfg, ucr::make_one_fail_factory(), k,
        /*at_steps_are_odd=*/true);

  trace("Log-Fails Adaptive (2)", cfg,
        ucr::make_log_fails_factory(ucr::LogFailsParams{},
                                    "Log-Fails Adaptive (2)"),
        k, /*at_steps_are_odd=*/true);

  std::cout << "kappa~/kappa -> ~1 during the drain is what produces the "
               "constant Table 1 ratios;\nLog-Fails' long kappa~ << kappa "
               "prefix is its Figure 1 hump.\n";
  return 0;
}
