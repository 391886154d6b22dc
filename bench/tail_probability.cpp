// Validates the with-high-probability claims of Theorems 1 and 2: the
// empirical probability that a run exceeds its analysis bound, against the
// theoretical error bounds 2/(1+k) (Thm 1) and 1/k^c (Thm 2).
//
// The paper's analyses are conservative (Table 1 shows measured ratios well
// below the bounds), so the expected outcome is ZERO exceedances — the
// point of the harness is that the guarantee holds with large margin, and
// to quantify that margin (worst observed ratio vs bound).
#include <iostream>

#include "analysis/bounds.hpp"
#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"

namespace {

/// Runs of the cell whose makespan exceeds `bound`.
std::uint64_t count_exceedances(const ucr::AggregateResult& result,
                                double bound) {
  std::uint64_t exceed = 0;
  for (const auto& run : result.details) {
    if (static_cast<double>(run.slots) > bound) ++exceed;
  }
  return exceed;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 10000);
  const std::uint64_t trials = cfg.runs * 20;  // default 200 runs per point

  std::cout << "=== Tail probability vs analysis bounds (" << trials
            << " runs per point) ===\n\n";

  const double ofa_delta = 2.72;
  const double ebobo_delta = 0.366;

  std::vector<std::uint64_t> ks;
  for (std::uint64_t k = 100; k <= cfg.k_max; k *= 10) ks.push_back(k);

  // One spec, protocol-major (all OFA cells then all EBOBO cells); the
  // per-run exceedance counts come from the aggregates' details.
  auto spec = cfg.spec().with_ks(ks);
  spec.runs = trials;
  spec.with_factory(
          ucr::make_one_fail_factory(ucr::OneFailParams{ofa_delta}, "ofa"))
      .with_factory(ucr::make_exp_backon_factory(
          ucr::ExpBackonParams{ebobo_delta}, "ebobo"));
  const auto results = ucr::bench::run_spec(cfg, spec);

  ucr::Table table({"protocol", "k", "bound (slots)", "worst run", "margin",
                    "P[exceed] emp", "P[fail] theory"});
  for (std::size_t j = 0; j < ks.size(); ++j) {
    const std::uint64_t k = ks[j];
    {
      const auto& res = results[j];  // OFA block
      // Theorem 1 with the additive O(log^2 k) term instantiated at c = 1;
      // the linear term dominates at these k.
      const double bound = ucr::one_fail_bound(ofa_delta, k, 1.0);
      const std::uint64_t exceed = count_exceedances(res, bound);
      table.add_row(
          {"One-Fail Adaptive", std::to_string(k), ucr::format_count(bound),
           ucr::format_count(res.makespan.max),
           ucr::format_double(bound / res.makespan.max, 2),
           ucr::format_double(
               static_cast<double>(exceed) / static_cast<double>(trials), 4),
           ucr::format_double(ucr::one_fail_error(k), 5)});
    }
    {
      const auto& res = results[ks.size() + j];  // EBOBO block
      const double bound = ucr::exp_backon_bound(ebobo_delta, k);
      const std::uint64_t exceed = count_exceedances(res, bound);
      table.add_row(
          {"Exp Back-on/Back-off", std::to_string(k),
           ucr::format_count(bound), ucr::format_count(res.makespan.max),
           ucr::format_double(bound / res.makespan.max, 2),
           ucr::format_double(
               static_cast<double>(exceed) / static_cast<double>(trials), 4),
           ucr::format_double(1.0 / static_cast<double>(k), 5)});
    }
  }
  table.print(std::cout);
  return 0;
}
