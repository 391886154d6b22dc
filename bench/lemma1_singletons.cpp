// Validates LEMMA 1 of the paper empirically: when m balls are dropped
// uniformly at random into w = m bins, the number of singleton bins is at
// least delta*m with probability at least 1 - 1/k^beta, provided
// m >= (2e/(1 - e*delta)^2)(1 + (beta + 1/2) ln k).
//
// This is the engine room of Theorem 2 (each Exp Back-on/Back-off window is
// exactly this process), so the harness both checks the bound and shows how
// conservative it is: the mean singleton fraction is ~1/e ≈ 0.3679,
// comfortably above delta = 0.366 only once m is large — which is precisely
// why the lemma needs its m >= tau threshold.
//
// This is the one harness that stays off the ExperimentSpec pipeline: it
// samples the balls-in-bins process directly (no protocol, no engine), so
// there is no sweep grid to declare.
#include <cstdint>
#include <iostream>

#include "analysis/bounds.hpp"
#include "harness_common.hpp"
#include "common/rng.hpp"
#include "common/samplers.hpp"
#include "common/table.hpp"

namespace {

// Counts singleton bins of one m-balls/w-bins throw via the same sequential
// conditional-binomial decomposition the window engine uses.
std::uint64_t sample_singletons(ucr::Xoshiro256& rng, std::uint64_t m,
                                std::uint64_t w) {
  std::uint64_t pending = m;
  std::uint64_t singles = 0;
  for (std::uint64_t j = 0; j < w && pending > 0; ++j) {
    const std::uint64_t t = ucr::sample_binomial(
        rng, pending, 1.0 / static_cast<double>(w - j));
    if (t == 1) ++singles;
    pending -= t;
  }
  return singles;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 1000000);
  const double delta = 0.366;  // the paper's Exp Back-on/Back-off constant
  const double beta = 1.0;
  const std::uint64_t trials = cfg.runs * 20;  // default 200 throws per m

  std::cout << "=== Lemma 1: singleton bins among m balls in w = m bins "
            << "(delta = " << delta << ", beta = " << beta << ", " << trials
            << " trials) ===\n\n";

  ucr::Table table({"m", "mean singles/m", "min singles/m",
                    "P[X < delta*m]", "lemma bound 1/k^beta",
                    "m >= lemma threshold?"});
  for (std::uint64_t m = 100; m <= cfg.k_max; m *= 10) {
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(cfg.seed, m);
    std::uint64_t below = 0;
    double sum_frac = 0.0;
    double min_frac = 1.0;
    for (std::uint64_t t = 0; t < trials; ++t) {
      const std::uint64_t singles = sample_singletons(rng, m, m);
      const double frac =
          static_cast<double>(singles) / static_cast<double>(m);
      sum_frac += frac;
      if (frac < min_frac) min_frac = frac;
      if (frac < delta) ++below;
    }
    const double threshold = ucr::lemma1_min_m(delta, beta, m);
    table.add_row(
        {std::to_string(m),
         ucr::format_double(sum_frac / static_cast<double>(trials), 4),
         ucr::format_double(min_frac, 4),
         ucr::format_double(static_cast<double>(below) /
                                static_cast<double>(trials),
                            4),
         ucr::format_double(1.0 / static_cast<double>(m), 6),
         static_cast<double>(m) >= threshold ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nExpected singleton fraction is (1-1/m)^(m-1) -> 1/e = "
            << ucr::format_double(1.0 / ucr::fair_optimal_ratio(), 4)
            << "; delta = 0.366 sits just below it, so the failure "
               "probability must vanish as m grows.\n";
  return 0;
}
