// Reproduces FIGURE 1 of the paper: average number of steps to solve static
// k-selection, per number of stations k, for the five evaluated protocols
// (log-log series). Emits the series both as an aligned table and as CSV
// (between BEGIN/END CSV markers) for replotting.
//
// Paper setting: k = 10^1..10^7, 10 runs per point, delta = 2.72 (OFA),
// delta = 0.366 (EBOBO), xi_delta = xi_beta = 0.1 and epsilon ~= 1/(k+1)
// (LFA, xi_t in {1/2, 1/10}), r = 2 (LLIBO).
#include <iostream>

#include "harness_common.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 1000000);
  const auto protocols = ucr::paper_protocols();
  const auto ks = ucr::paper_k_sweep(cfg.k_max);

  std::cout << "=== Figure 1: steps to solve static k-selection "
            << "(mean of " << cfg.runs << " runs, seed " << cfg.seed
            << ") ===\n\n";

  // The protocol x k grid is one declarative spec; run_spec executes it on
  // the shared pipeline.
  auto spec = cfg.spec().with_ks(ks);
  for (const auto& factory : protocols) spec.with_factory(factory);

  // protocol x k -> aggregate (cells arrive protocol-major, in grid order).
  const auto flat = ucr::bench::run_spec(cfg, spec);
  std::vector<std::string> header{"k"};
  for (const auto& factory : protocols) header.push_back(factory.name);
  ucr::Table table(header);
  for (std::size_t j = 0; j < ks.size(); ++j) {
    std::vector<std::string> row{std::to_string(ks[j])};
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      row.push_back(
          ucr::format_double(flat[i * ks.size() + j].makespan.mean, 0));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nBEGIN CSV\n";
  ucr::CsvWriter csv(std::cout);
  csv.write_row({"protocol", "k", "mean_steps", "ci95_halfwidth",
                 "min_steps", "max_steps"});
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    for (std::size_t j = 0; j < ks.size(); ++j) {
      const auto& res = flat[i * ks.size() + j];
      csv.write_row({protocols[i].name, std::to_string(ks[j]),
                     ucr::format_double(res.makespan.mean, 1),
                     ucr::format_double(res.makespan.ci95_halfwidth, 1),
                     ucr::format_double(res.makespan.min, 0),
                     ucr::format_double(res.makespan.max, 0)});
    }
  }
  std::cout << "END CSV\n";
  return 0;
}
