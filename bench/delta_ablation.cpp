// Ablation of the delta design constants of
// docs/PROTOCOLS.md "One-Fail Adaptive" and
// docs/PROTOCOLS.md "Exp Back-on/Back-off":
//  * One-Fail Adaptive admits e < delta <= 2.9906; the paper picked 2.72.
//    The analysis ratio 2(delta+1) grows with delta, so smaller delta looks
//    better on paper — this harness shows the measured effect.
//  * Exp Back-on/Back-off admits 0 < delta < 1/e ≈ 0.3679; the paper picked
//    0.366. Small delta shrinks windows too fast (more re-runs of the outer
//    loop), large delta is bounded by the 1/e singleton fraction; the
//    measured optimum sits near the upper end, exactly where the paper
//    operates.
#include <iostream>

#include "analysis/bounds.hpp"
#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 10000);
  const std::uint64_t k = cfg.k_max;

  std::cout << "=== delta ablation at k = " << k << " (" << cfg.runs
            << " runs) ===\n\n";

  // Both ablation axes run as one spec; the grid is the OFA deltas
  // followed by the EBOBO deltas, in listed order (explicit factories —
  // a registry name cannot carry the swept parameter).
  const std::vector<double> ofa_deltas{2.72, 2.75, 2.80, 2.85, 2.90, 2.99};
  const std::vector<double> ebobo_deltas{0.05, 0.10, 0.20, 0.30, 0.366};

  auto spec = cfg.spec().with_ks({k});
  for (const double delta : ofa_deltas) {
    spec.with_factory(
        ucr::make_one_fail_factory(ucr::OneFailParams{delta}, "ofa"));
  }
  for (const double delta : ebobo_deltas) {
    spec.with_factory(
        ucr::make_exp_backon_factory(ucr::ExpBackonParams{delta}, "ebobo"));
  }
  const auto results = ucr::bench::run_spec(cfg, spec);

  {
    std::cout << "One-Fail Adaptive (admissible: e < delta <= 2.9906)\n";
    ucr::Table table({"delta", "measured ratio", "analysis 2(delta+1)"});
    for (std::size_t i = 0; i < ofa_deltas.size(); ++i) {
      const double delta = ofa_deltas[i];
      table.add_row({ucr::format_double(delta, 3),
                     ucr::format_double(results[i].ratio.mean, 2),
                     ucr::format_double(ucr::one_fail_ratio(delta), 2)});
    }
    table.print(std::cout);
  }

  {
    std::cout << "\nExp Back-on/Back-off (admissible: 0 < delta < 1/e)\n";
    ucr::Table table({"delta", "measured ratio", "analysis 4(1+1/delta)"});
    for (std::size_t i = 0; i < ebobo_deltas.size(); ++i) {
      const double delta = ebobo_deltas[i];
      const auto& res = results[ofa_deltas.size() + i];
      table.add_row({ucr::format_double(delta, 3),
                     ucr::format_double(res.ratio.mean, 2),
                     ucr::format_double(ucr::exp_backon_ratio(delta), 2)});
    }
    table.print(std::cout);
  }
  return 0;
}
