// Reproduces TABLE 1 of the paper: the ratio steps/k as a function of k for
// each evaluated protocol, plus the paper's "Analysis" column (the
// with-high-probability constants obtained analytically).
//
// Expected shape (paper): Log-Fails Adaptive is far above its asymptote for
// k <= 10^5 and converges to ~7.8 / ~4.4; One-Fail Adaptive is flat at
// ~7.4 from k = 10^3 on; Exp Back-on/Back-off moves between 4 and 8 (well
// under its pessimistic 14.9 analysis); LogLog-Iterated sits around 10.
#include <iostream>

#include "analysis/bounds.hpp"
#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 1000000);
  const auto protocols = ucr::paper_protocols();
  const auto ks = ucr::paper_k_sweep(cfg.k_max);

  std::cout << "=== Table 1: ratio steps/nodes as a function of k "
            << "(mean of " << cfg.runs << " runs, seed " << cfg.seed
            << ") ===\n\n";

  auto spec = cfg.spec().with_ks(ks);
  for (const auto& factory : protocols) spec.with_factory(factory);
  const auto results = ucr::bench::run_spec(cfg, spec);

  std::vector<std::string> header{"k"};
  for (const auto k : ks) header.push_back(std::to_string(k));
  header.push_back("Analysis");

  ucr::Table table(header);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    std::vector<std::string> row{protocols[i].name};
    for (std::size_t j = 0; j < ks.size(); ++j) {
      const auto& res = results[i * ks.size() + j];
      row.push_back(ucr::format_double(res.ratio.mean, 1));
    }
    row.push_back(ucr::analysis_cell(protocols[i].name));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nReference: the smallest ratio achievable by any fair "
               "protocol is e = "
            << ucr::format_double(ucr::fair_optimal_ratio(), 3)
            << " (Section 5 of the paper).\n";
  return 0;
}
