// Protocol internals trace: watch One-Fail Adaptive's density estimator
// chase the true density, and Exp Back-on/Back-off's sawtooth window.
//
//   $ ./protocol_trace [--k=64] [--seed=5] [--slots=120]
//
// Composes the public pieces directly (shared protocol state + categorical
// slot sampler) instead of using the engine, to show how the library's
// layers fit together.
#include <cstdint>
#include <iostream>

#include "common/cli.hpp"
#include "common/samplers.hpp"
#include "common/table.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"

namespace {

void trace_one_fail(std::uint64_t k, std::uint64_t seed,
                    std::uint64_t max_rows) {
  std::cout << "One-Fail Adaptive, k = " << k
            << ": estimator kappa~ vs true density kappa\n\n";
  ucr::OneFailAdaptive protocol;
  ucr::Xoshiro256 rng(seed);
  std::uint64_t m = k;

  ucr::Table table({"slot", "type", "p(tx)", "outcome", "kappa~", "kappa",
                    "sigma"});
  for (std::uint64_t slot = 1; m > 0 && slot <= max_rows; ++slot) {
    const double p = protocol.transmit_probability();
    const auto cat = ucr::sample_slot_category(rng, m, p);
    const bool delivery = cat == ucr::SlotCategory::kSuccess;
    const char* outcome = cat == ucr::SlotCategory::kSilence ? "silence"
                          : delivery                         ? "SUCCESS"
                                                             : "collision";
    table.add_row({std::to_string(slot), protocol.is_bt_step() ? "BT" : "AT",
                   ucr::format_double(p, 4), outcome,
                   ucr::format_double(protocol.kappa_estimate(), 2),
                   std::to_string(m), std::to_string(protocol.sigma())});
    if (delivery) --m;
    protocol.on_slot_end(delivery);
  }
  table.print(std::cout);
  if (m > 0) {
    std::cout << "(truncated after " << max_rows << " slots; " << m
              << " messages still pending)\n";
  }
}

void trace_sawtooth(int windows) {
  std::cout << "\nExp Back-on/Back-off window sawtooth (delta = 0.366):\n\n";
  ucr::ExpBackonBackoff schedule;
  ucr::Table table({"window#", "phase (w=2^i)", "slots"});
  for (int i = 1; i <= windows; ++i) {
    const std::uint64_t phase = schedule.phase();
    table.add_row({std::to_string(i), std::to_string(phase),
                   std::to_string(schedule.next_window_slots())});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const ucr::CliArgs args(argc, argv, {"k", "seed", "slots"});
  trace_one_fail(args.get_u64("k", 64), args.get_u64("seed", 5),
                 args.get_u64("slots", 120));
  trace_sawtooth(25);
  return 0;
}
