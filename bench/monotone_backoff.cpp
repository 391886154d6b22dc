// Monotone vs non-monotone ablation — the motivating comparison of the
// paper's introduction: monotone back-off (r-exponential) is superlinear
// for batched arrivals, LogLog-Iterated Back-off is the best monotone
// strategy (Theta(k lglg k / lglglg k)), and the paper's non-monotonic
// sawtooth is linear. This harness shows the growth of the ratio steps/k:
// roughly flat for the sawtooth, slowly growing for LLIBO, log-growing for
// exponential back-off.
#include <iostream>

#include "harness_common.hpp"
#include "common/table.hpp"
#include "core/exp_backon_backoff.hpp"
#include "protocols/exp_backoff.hpp"
#include "protocols/loglog_backoff.hpp"
#include "protocols/poly_backoff.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  const auto cfg = ucr::bench::parse_harness_config(argc, argv, 100000);

  std::cout << "=== Monotone back-off ablation: ratio steps/k ===\n\n";

  std::vector<ucr::ProtocolFactory> protocols;
  protocols.push_back(ucr::make_exp_backon_factory(
      ucr::ExpBackonParams{0.366}, "Sawtooth (non-monotone)"));
  protocols.push_back(
      ucr::make_loglog_factory(ucr::LogLogParams{2.0}, "LogLog-Iterated"));
  for (const double r : {2.0, 4.0, 16.0}) {
    protocols.push_back(
        ucr::make_exp_backoff_factory(ucr::ExpBackoffParams{r}));
  }
  protocols.push_back(
      ucr::make_poly_backoff_factory(ucr::PolyBackoffParams{2.0}));

  const auto ks = ucr::paper_k_sweep(cfg.k_max);
  auto spec = cfg.spec().with_ks(ks);
  for (const auto& factory : protocols) spec.with_factory(factory);
  const auto results = ucr::bench::run_spec(cfg, spec);

  std::vector<std::string> header{"protocol"};
  for (const auto k : ks) header.push_back(std::to_string(k));
  ucr::Table table(header);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    std::vector<std::string> row{protocols[i].name};
    for (std::size_t j = 0; j < ks.size(); ++j) {
      row.push_back(
          ucr::format_double(results[i * ks.size() + j].ratio.mean, 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nA flat row = linear makespan; a growing row = superlinear "
               "(monotone strategies).\n";
  return 0;
}
